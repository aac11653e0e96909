package mesh

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/retry"
)

// linkState is one scheduled link: its definition, its kick channel (hot
// triggers, RunNow), and its counters.
type linkState struct {
	link Link
	kick chan struct{}
	stop chan struct{}

	mu       sync.Mutex
	stopped  bool
	triggers map[string]*repl.ChangeTrigger // by db path
	rounds   uint64
	failures uint64
	consec   int
	brokenAt time.Time // breaker open since; zero when closed
	lastOK   time.Time
	skipped  uint64
	notesIn  uint64
	notesOut uint64
	bytesIn  uint64
	bytesOut uint64
	lastNote string
	halfOpen bool
}

// shutdown stops the link's scheduler goroutine and detaches its
// changefeed triggers.
func (ls *linkState) shutdown() {
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return
	}
	ls.stopped = true
	triggers := ls.triggers
	ls.triggers = nil
	ls.mu.Unlock()
	close(ls.stop)
	for _, tr := range triggers {
		tr.Stop()
	}
}

func (ls *linkState) status() LinkStatus {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	st := LinkStatus{
		Link:        ls.link,
		Rounds:      ls.rounds,
		Failures:    ls.failures,
		ConsecFails: ls.consec,
		BreakerOpen: !ls.brokenAt.IsZero(),
		SkippedDBs:  ls.skipped,
		NotesIn:     ls.notesIn,
		NotesOut:    ls.notesOut,
		BytesIn:     ls.bytesIn,
		BytesOut:    ls.bytesOut,
		Note:        ls.lastNote,
	}
	if !ls.lastOK.IsZero() {
		st.Lag = time.Since(ls.lastOK)
	}
	return st
}

// run is the per-link scheduler loop: wait out the interval (with jitter)
// or a kick, check admission and the breaker, run one round, update the
// backoff state.
func (m *Mesh) run(ls *linkState) {
	defer m.wg.Done()
	// Deterministic per-link jitter source: links with the same interval
	// de-phase from each other without global coordination.
	h := fnv.New64a()
	h.Write([]byte(ls.link.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	if ls.link.Class == Hot {
		m.attachTriggers(ls)
	}
	for {
		timer := time.NewTimer(m.nextDelay(ls, rng))
		select {
		case <-ls.stop:
			timer.Stop()
			return
		case <-ls.kick:
			timer.Stop()
		case <-timer.C:
		}
		if !m.breakerAllows(ls) {
			continue
		}
		if !m.opts.Node.Admitted() {
			ls.mu.Lock()
			ls.lastNote = "held: node draining"
			ls.mu.Unlock()
			continue
		}
		if ls.link.Class == Hot {
			m.attachTriggers(ls) // pick up databases created since last round
		}
		err := m.round(ls)
		m.settle(ls, err)
	}
}

// nextDelay computes how long to sleep before the next unsolicited round:
// the link interval with up to 25% of deterministic jitter (anti-entropy
// rounds across the mesh de-phase), stretched by the failure backoff, and
// floored at the breaker cooldown while the breaker is open.
func (m *Mesh) nextDelay(ls *linkState, rng *rand.Rand) time.Duration {
	ls.mu.Lock()
	interval := ls.link.Interval
	consec := ls.consec
	broken := !ls.brokenAt.IsZero()
	cooldown := m.cooldown(ls.link)
	ls.mu.Unlock()
	d := interval
	if consec > 0 && !broken {
		// Exponential backoff below the breaker threshold, capped at the
		// cooldown: 1 failure doubles the wait, 2 quadruple it.
		d = retry.Exp(interval, consec, cooldown)
	}
	if broken {
		d = cooldown / 4 // poll the breaker clock, not the peer
	}
	if d <= 0 {
		d = m.opts.Interval
	}
	// One-sided jitter: rounds never fire early (minimum spacing holds),
	// but peers sharing an interval de-phase.
	return retry.JitterUp(rng, d, 0.25)
}

// breakerAllows reports whether a round may run now. An open breaker
// swallows rounds until the cooldown elapses, then allows exactly one
// half-open probe; the probe's outcome (settle) closes or re-opens it.
func (m *Mesh) breakerAllows(ls *linkState) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.brokenAt.IsZero() {
		return true
	}
	if time.Since(ls.brokenAt) < m.cooldown(ls.link) {
		ls.lastNote = "breaker open"
		return false
	}
	if ls.halfOpen {
		return false // a probe is already in flight
	}
	ls.halfOpen = true
	return true
}

// breakerAfter is the failure streak that opens a link's breaker.
const breakerAfter = 3

// settle folds a round's outcome into the link's backoff and breaker state.
func (m *Mesh) settle(ls *linkState, err error) {
	ls.mu.Lock()
	ls.rounds++
	ls.halfOpen = false
	if err == nil {
		ls.consec = 0
		ls.brokenAt = time.Time{}
		ls.lastOK = time.Now()
		ls.lastNote = ""
		ls.mu.Unlock()
		return
	}
	ls.failures++
	ls.consec++
	ls.lastNote = err.Error()
	tripped := false
	if ls.consec >= breakerAfter {
		if ls.brokenAt.IsZero() {
			tripped = true
		}
		ls.brokenAt = time.Now()
	}
	name := ls.link.Name
	ls.mu.Unlock()
	if tripped {
		m.logf("link %s: breaker open after %d consecutive failures: %v", name, breakerAfter, err)
	} else {
		m.logf("link %s: round failed: %v", name, err)
	}
}

// attachTriggers wires a hot link's kick channel to the changefeed of every
// covered local database that does not have a trigger yet. Each trigger is
// debounced per link, so a write burst costs one round; trigger firings
// are forwarded into the kick channel (capacity one — firings during an
// in-flight round coalesce into a single follow-up).
func (m *Mesh) attachTriggers(ls *linkState) {
	for _, p := range m.opts.Node.Paths() {
		if !matches(ls.link.Glob, p) {
			continue
		}
		ls.mu.Lock()
		if ls.stopped || ls.triggers[p] != nil {
			ls.mu.Unlock()
			continue
		}
		ls.mu.Unlock()
		db, err := m.opts.Node.Open(p)
		if err != nil {
			continue
		}
		tr := repl.NewChangeTrigger(db, ls.link.Debounce)
		ls.mu.Lock()
		if ls.stopped {
			ls.mu.Unlock()
			tr.Stop()
			return
		}
		if ls.triggers == nil {
			ls.triggers = make(map[string]*repl.ChangeTrigger)
		}
		ls.triggers[p] = tr
		ls.mu.Unlock()
		m.wg.Add(1)
		go func(tr *repl.ChangeTrigger) {
			defer m.wg.Done()
			for {
				select {
				case <-ls.stop:
					return
				case <-tr.C():
					select {
					case ls.kick <- struct{}{}:
					default:
					}
				}
			}
		}(tr)
	}
}

// round runs one replication round over every database the link covers:
// dial the peer once, then replicate each matching local database against
// the peer's same-path database. A replica-ID mismatch (the peer holds an
// unrelated database at that path) is counted and skipped; any other error
// fails the round — the remaining databases wait for the retry, which is
// what the backoff ladder is for.
func (m *Mesh) round(ls *linkState) error {
	ls.mu.Lock()
	link := ls.link
	ls.mu.Unlock()
	sess, err := m.opts.Dialer.Dial(link.Peer)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, p := range m.opts.Node.Paths() {
		if !matches(link.Glob, p) {
			continue
		}
		db, err := m.opts.Node.Open(p)
		if err != nil {
			return err
		}
		peerDB, err := sess.Open(p)
		if err != nil {
			return err
		}
		remoteReplica, err := peerDB.ReplicaID()
		if err != nil {
			return err
		}
		if remoteReplica != db.ReplicaID() {
			ls.mu.Lock()
			ls.skipped++
			ls.mu.Unlock()
			continue
		}
		opts := repl.Options{
			PeerName: cursorName(link, p),
			Formula:  link.Formula,
			Apply:    m.opts.Apply,
			PullOnly: link.Direction == Pull,
			PushOnly: link.Direction == Push,
		}
		if err := opts.Prepare(); err != nil {
			return err
		}
		stats, err := repl.Replicate(db, peerDB, opts)
		ls.mu.Lock()
		ls.notesIn += uint64(stats.NotesFetched)
		ls.notesOut += uint64(stats.NotesSent)
		ls.bytesIn += uint64(stats.BytesIn)
		ls.bytesOut += uint64(stats.BytesOut)
		ls.mu.Unlock()
		if err != nil {
			return err
		}
		if stats.Pull.Total()+stats.Push.Total() > 0 {
			m.logf("link %s: %s: %s", link.Name, p, stats)
		}
	}
	return nil
}
