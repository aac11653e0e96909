package kit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
)

// Kind is a client operation class.
type Kind uint8

// The operation classes the workloads mix.
const (
	Get Kind = iota
	ViewPage
	Search
	Scan
	Update
	Create
	Delete
	PutBatch
	NumKinds
)

var kindNames = [NumKinds]string{"get", "viewpage", "search", "scan", "update", "create", "delete", "putbatch"}

func (k Kind) String() string { return kindNames[k] }

// Op is one pre-generated operation. Key is a draw the executor folds onto
// whatever the operation addresses at the time it runs (a live document, a
// view offset, a query), so the list names no UNID and two runs of one seed
// drive the same load whatever identities the documents get.
type Op struct {
	Kind Kind
	Key  uint32
}

// Share is one class's weight in a mix.
type Share struct {
	Kind   Kind
	Weight int
}

// GenOps derives client's list of n operations from seed. The list is
// stratified: every block of as many operations as the weights sum to holds
// each class exactly its weight's number of times, in an order the seed
// shuffles, so that any stretch of a run carries the declared mix and two
// runs differ in which operations they reach only at the very end. Keys of
// Get and Update follow a Zipf law of exponent zipfS over [0, keys) when
// zipfS > 1, so reads and writes share their hot documents; every other
// key, and every key when zipfS is 0, is uniform.
func GenOps(seed int64, client, n int, mix []Share, keys int, zipfS float64) []Op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))
	var zipf *rand.Zipf
	if zipfS > 1 && keys > 1 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	}
	var block []Kind
	for _, s := range mix {
		for i := 0; i < s.Weight; i++ {
			block = append(block, s.Kind)
		}
	}
	ops := make([]Op, 0, n+len(block))
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			key := rng.Uint32()
			if zipf != nil && (kind == Get || kind == Update) {
				key = uint32(zipf.Uint64())
			}
			ops = append(ops, Op{Kind: kind, Key: key})
		}
	}
	return ops[:n]
}

// HashOps fingerprints op lists (kinds and key draws), so two result files
// can prove they drove the same load.
func HashOps(lists ...[]Op) string {
	h := sha256.New()
	var buf [5]byte
	for _, ops := range lists {
		for _, op := range ops {
			buf[0] = byte(op.Kind)
			binary.LittleEndian.PutUint32(buf[1:], op.Key)
			h.Write(buf[:])
		}
		h.Write([]byte{0xFF})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
