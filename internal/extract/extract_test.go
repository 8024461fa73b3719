package extract

import (
	"testing"

	"repro/internal/appdsl"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

func calendarSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Users").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("Name", sqlvalue.Text).
		PK("UId").Done().
		Table("Events").
		OpaqueCol("EId", sqlvalue.Int).
		NotNullCol("Title", sqlvalue.Text).
		Col("Notes", sqlvalue.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").
		FK([]string{"UId"}, "Users", []string{"UId"}).
		FK([]string{"EId"}, "Events", []string{"EId"}).Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// showEventApp is the paper's Listing 1 as an application.
func showEventApp() *appdsl.App {
	return &appdsl.App{
		Name:         "calendar",
		SessionParam: map[string]string{"user_id": "MyUId"},
		Handlers: []*appdsl.Handler{{
			Name:   "show_event",
			Params: []string{"event_id"},
			Body: []appdsl.Stmt{
				appdsl.Query{Dest: "check",
					SQL:  "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
					Args: []appdsl.Val{appdsl.SessionRef{Name: "user_id"}, appdsl.ParamRef{Name: "event_id"}}},
				appdsl.If{Cond: appdsl.Empty{Result: "check"},
					Then: []appdsl.Stmt{appdsl.Abort{Message: "event not found"}}},
				appdsl.Query{Dest: "event",
					SQL:  "SELECT * FROM Events WHERE EId = ?",
					Args: []appdsl.Val{appdsl.ParamRef{Name: "event_id"}}},
				appdsl.Render{From: "event"},
			},
		}},
	}
}

// groundTruth is the paper's Example 2.1 policy.
func groundTruth(t testing.TB, s *schema.Schema) *policy.Policy {
	t.Helper()
	return policy.MustNew(s, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2": "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
	})
}

func TestSymbolicExtractExample31(t *testing.T) {
	s := calendarSchema(t)
	p, err := SymbolicExtract(s, showEventApp())
	if err != nil {
		t.Fatal(err)
	}
	truth := groundTruth(t, s)
	acc := Compare(p, truth)
	if !acc.Exact() {
		t.Fatalf("extraction should recover V1=V2 exactly (paper Example 3.1).\nExtracted:\n%s\nAccuracy: %+v",
			p, acc)
	}
}

func TestSymbolicExtractExposesGuard(t *testing.T) {
	s := calendarSchema(t)
	p, err := SymbolicExtract(s, showEventApp())
	if err != nil {
		t.Fatal(err)
	}
	// One of the views must join Events with Attendance on the current
	// user (the guarded fetch); it must NOT allow arbitrary events.
	broad := cq.MustFromSQL(s, "SELECT * FROM Events")[0]
	for _, v := range p.Views {
		for _, q := range v.CQs {
			if cq.Contains(broad, q) {
				t.Fatalf("over-generalized view %s allows all events:\n%s", v.Name, q)
			}
		}
	}
}

// mineSamples runs the app concretely for several users and collects
// black-box samples.
func mineSamples(t *testing.T, s *schema.Schema, app *appdsl.App, db *engine.DB, runs []struct {
	uid     int64
	eventID int64
}) []Sample {
	t.Helper()
	var samples []Sample
	for _, r := range runs {
		var entries []MinedEntry
		runner := appdsl.RunnerFunc(func(sql string, args []sqlvalue.Value) (*appdsl.Rows, error) {
			res, err := db.QuerySQL(sql, sqlparser.Args{Positional: args})
			if err != nil {
				return nil, err
			}
			entries = append(entries, MinedEntry{
				SQL: sql, Args: args, Columns: res.Columns, Rows: res.Rows,
			})
			return &appdsl.Rows{Columns: res.Columns, Rows: res.Rows}, nil
		})
		h, _ := app.Handler("show_event")
		_, err := appdsl.Run(h,
			map[string]sqlvalue.Value{"event_id": sqlvalue.NewInt(r.eventID)},
			map[string]sqlvalue.Value{"user_id": sqlvalue.NewInt(r.uid)},
			runner)
		if err != nil {
			t.Fatalf("run uid=%d event=%d: %v", r.uid, r.eventID, err)
		}
		samples = append(samples, Sample{
			Handler: "show_event",
			Session: map[string]sqlvalue.Value{"user_id": sqlvalue.NewInt(r.uid)},
			Entries: entries,
		})
	}
	return samples
}

func seededDB(t testing.TB, s *schema.Schema) *engine.DB {
	t.Helper()
	db := engine.New(s)
	db.MustExec("INSERT INTO Users (UId, Name) VALUES (1, 'alice'), (2, 'bob')")
	db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (2, 'retro', 'x'), (5, 'ship', NULL)")
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (1, 2), (2, 5)")
	return db
}

func TestMineRecoversPolicy(t *testing.T) {
	s := calendarSchema(t)
	app := showEventApp()
	db := seededDB(t, s)
	samples := mineSamples(t, s, app, db, []struct {
		uid     int64
		eventID int64
	}{
		{uid: 1, eventID: 2},
		{uid: 2, eventID: 5},
	})
	opts := DefaultMineOptions()
	opts.SessionParam = map[string]string{"user_id": "MyUId"}
	p, err := Mine(s, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := groundTruth(t, s)
	acc := Compare(p, truth)
	if acc.Recall() < 1 {
		t.Fatalf("mining should cover the ground truth.\nExtracted:\n%s\nAccuracy: %+v", p, acc)
	}
	if acc.Precision() < 1 {
		t.Fatalf("mining should not over-generalize.\nExtracted:\n%s\nAccuracy: %+v", p, acc)
	}
}

func TestMineWithoutGuardsOverGeneralizes(t *testing.T) {
	s := calendarSchema(t)
	app := showEventApp()
	db := seededDB(t, s)
	samples := mineSamples(t, s, app, db, []struct {
		uid     int64
		eventID int64
	}{
		{uid: 1, eventID: 2},
		{uid: 2, eventID: 5},
	})
	opts := DefaultMineOptions()
	opts.SessionParam = map[string]string{"user_id": "MyUId"}
	opts.InferGuards = false
	p, err := Mine(s, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc := Compare(p, groundTruth(t, s))
	if acc.Precision() >= 1 {
		t.Fatalf("without guard inference the event fetch should over-generalize:\n%s", p)
	}
}

func TestMineSingleUserCannotGeneralizeSession(t *testing.T) {
	s := calendarSchema(t)
	app := showEventApp()
	db := seededDB(t, s)
	samples := mineSamples(t, s, app, db, []struct {
		uid     int64
		eventID int64
	}{
		{uid: 1, eventID: 2},
	})
	opts := DefaultMineOptions()
	opts.SessionParam = map[string]string{"user_id": "MyUId"}
	p, err := Mine(s, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With one principal, the UId constant can't be attributed to the
	// session; recall against the parameterized truth fails.
	acc := Compare(p, groundTruth(t, s))
	if acc.Recall() >= 1 {
		t.Fatalf("single-principal mining should not produce parameterized views:\n%s", p)
	}
}

func TestMineHintsGeneralizeOpaqueIds(t *testing.T) {
	s := calendarSchema(t)
	app := showEventApp()
	db := seededDB(t, s)
	// Both runs probe the SAME event id, so without hints the event id
	// would be kept as a constant.
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (2, 2)")
	samples := mineSamples(t, s, app, db, []struct {
		uid     int64
		eventID int64
	}{
		{uid: 1, eventID: 2},
		{uid: 2, eventID: 2},
	})
	opts := DefaultMineOptions()
	opts.SessionParam = map[string]string{"user_id": "MyUId"}

	withHints, err := Mine(s, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	accH := Compare(withHints, groundTruth(t, s))
	if accH.Recall() < 1 {
		t.Fatalf("with opaque-ID hints the constant event id should generalize:\n%s", withHints)
	}

	opts.UseHints = false
	withoutHints, err := Mine(s, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	accN := Compare(withoutHints, groundTruth(t, s))
	if accN.Recall() >= 1 {
		t.Fatalf("without hints EId=2 should stay a constant (no generalization):\n%s", withoutHints)
	}
}

func TestCompareAccuracyMath(t *testing.T) {
	a := Accuracy{TruthCovered: 1, TruthTotal: 2, ExtractedSound: 3, ExtractedTotal: 3}
	if a.Recall() != 0.5 || a.Precision() != 1 || a.Exact() {
		t.Errorf("accuracy math: %+v", a)
	}
	empty := Accuracy{}
	if empty.Recall() != 1 || empty.Precision() != 1 {
		t.Error("empty accuracy should be vacuously perfect")
	}
}

func emptyDB(t testing.TB, s *schema.Schema) *engine.DB {
	t.Helper()
	return engine.New(s)
}
