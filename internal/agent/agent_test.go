package agent

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nsf"
)

func openDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "agents.nsf"), core.Options{Title: "agents"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func task(db *core.Database, t *testing.T, subject string, priority float64) *nsf.Note {
	t.Helper()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Form", "Task")
	n.SetText("Subject", subject)
	n.SetNumber("Priority", priority)
	n.SetText("Status", "new")
	if err := db.Session("admin").Create(n); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInvokedAgentModifiesSelectedDocs(t *testing.T) {
	db := openDB(t)
	m, err := NewManager(db)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("escalate", "admin", OnInvoke,
		`SELECT Priority >= 5`,
		`FIELD Status := "escalated"`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	low := task(db, t, "low", 1)
	high := task(db, t, "high", 9)
	stats, err := m.Run("escalate")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Examined != 2 || stats.Selected != 1 || stats.Modified != 1 {
		t.Errorf("stats = %+v", stats)
	}
	got, _ := db.Session("admin").Get(high.OID.UNID)
	if got.Text("Status") != "escalated" {
		t.Errorf("high status = %q", got.Text("Status"))
	}
	got, _ = db.Session("admin").Get(low.OID.UNID)
	if got.Text("Status") != "new" {
		t.Errorf("low status = %q", got.Text("Status"))
	}
	// Idempotent: second run selects but modifies nothing.
	stats, _ = m.Run("escalate")
	if stats.Modified != 0 {
		t.Errorf("second run modified %d", stats.Modified)
	}
}

func TestSaveTriggeredAgent(t *testing.T) {
	db := openDB(t)
	m, err := NewManager(db)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("stamp", "admin", OnSave,
		`SELECT Form = "Task"`,
		`FIELD Stamped := "yes"`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	n := task(db, t, "auto", 1)
	db.Refresh() // save triggers run on the maintainer, not the writer
	got, _ := db.Session("admin").Get(n.OID.UNID)
	if got.Text("Stamped") != "yes" {
		t.Errorf("save trigger did not run: Stamped = %q", got.Text("Stamped"))
	}
	// The agent's own save must not loop: the doc has exactly seq 2
	// (create + one agent save).
	if got.OID.Seq != 2 {
		t.Errorf("seq = %d, want 2 (no agent feedback loop)", got.OID.Seq)
	}
	// A non-matching doc is untouched.
	other := nsf.NewNote(nsf.ClassDocument)
	other.SetText("Form", "Memo")
	db.Session("admin").Create(other)
	db.Refresh()
	got, _ = db.Session("admin").Get(other.OID.UNID)
	if got.Has("Stamped") {
		t.Error("agent ran on unselected doc")
	}
}

func TestAgentsPersistAsDesignNotes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agents.nsf")
	db, err := core.Open(path, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewManager(db)
	a, _ := New("keeper", "admin", OnInvoke, "SELECT @All", `FIELD Seen := "1"`)
	if err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := core.Open(path, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2, err := NewManager(db2)
	if err != nil {
		t.Fatal(err)
	}
	agents := m2.Agents()
	if len(agents) != 1 || agents[0].Name != "keeper" {
		t.Fatalf("agents after reopen = %v", agents)
	}
	// And it still runs.
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Form", "X")
	db2.Session("admin").Create(n)
	if _, err := m2.Run("keeper"); err != nil {
		t.Fatalf("Run after reopen: %v", err)
	}
	got, _ := db2.Session("admin").Get(n.OID.UNID)
	if got.Text("Seen") != "1" {
		t.Error("reloaded agent did not act")
	}
}

func TestRunUnknownAgent(t *testing.T) {
	db := openDB(t)
	m, _ := NewManager(db)
	if _, err := m.Run("ghost"); err == nil {
		t.Error("unknown agent ran")
	}
}

func TestAgentComputedFields(t *testing.T) {
	db := openDB(t)
	m, _ := NewManager(db)
	a, err := New("summarize", "admin", OnInvoke,
		`SELECT @All`,
		`FIELD Summary := @Left(Subject; 3) + "… (" + @Text(@Length(Subject)) + " chars)"`)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(a)
	n := task(db, t, "abcdefgh", 1)
	if _, err := m.Run("summarize"); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Session("admin").Get(n.OID.UNID)
	if got.Text("Summary") != "abc… (8 chars)" {
		t.Errorf("Summary = %q", got.Text("Summary"))
	}
}
