package beyond_test

import (
	"context"
	"strings"
	"testing"

	beyond "repro"
)

// TestPublicAPIQuickstart exercises the facade end to end, mirroring
// the package example.
func TestPublicAPIQuickstart(t *testing.T) {
	sch := beyond.NewSchema().
		Table("Events").
		NotNullCol("EId", beyond.Int).
		NotNullCol("Title", beyond.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", beyond.Int).
		NotNullCol("EId", beyond.Int).
		PK("UId", "EId").Done().
		MustBuild()
	db := beyond.NewDB(sch)
	db.MustExec("INSERT INTO Events (EId, Title) VALUES (2, 'retro')")
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (1, 2)")

	pol := beyond.MustNewPolicy(sch, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
	})
	chk := beyond.NewChecker(pol)
	sess := beyond.Session(map[string]any{"MyUId": 1})

	d, err := chk.CheckSQL(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1", beyond.Args(), sess, nil)
	if err != nil || !d.Allowed {
		t.Fatalf("own attendance should be allowed: %+v %v", d, err)
	}
	d, err = chk.CheckSQL(context.Background(), "SELECT Title FROM Events", beyond.Args(), sess, nil)
	if err != nil || d.Allowed {
		t.Fatalf("titles should be blocked: %+v %v", d, err)
	}
}

func TestPublicAPIFixtures(t *testing.T) {
	fs := beyond.Fixtures()
	if len(fs) != 4 {
		t.Fatalf("fixtures: %d", len(fs))
	}
	f, err := beyond.FixtureByName("calendar")
	if err != nil {
		t.Fatal(err)
	}
	p, err := beyond.ExtractPolicy(f.Schema, f.App)
	if err != nil {
		t.Fatal(err)
	}
	acc := beyond.CompareExtraction(p, f.AppTruth())
	if !acc.Exact() {
		t.Fatalf("calendar extraction should be exact: %+v\n%s", acc, p)
	}
}

func TestPublicAPIProxyAndDiagnosis(t *testing.T) {
	f, err := beyond.FixtureByName("calendar")
	if err != nil {
		t.Fatal(err)
	}
	db := f.MustNewDB(8)
	chk := beyond.NewChecker(f.Policy())
	svc, err := beyond.Serve(db, chk, beyond.Enforce, beyond.WithV2Listener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl, err := beyond.DialProxy(svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?", 1); err != nil {
		t.Fatal(err)
	}

	diag, err := beyond.DiagnoseBlocked(context.Background(), chk, f.Session(1),
		"SELECT * FROM Events WHERE EId=2", beyond.Args(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Counter == nil || len(diag.Checks) == 0 {
		t.Fatalf("diagnosis incomplete: %+v", diag)
	}
	if !strings.Contains(diag.String(), "access check") {
		t.Error("diagnosis rendering missing access check section")
	}
}

func TestPublicAPIAudit(t *testing.T) {
	f, err := beyond.FixtureByName("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := beyond.AuditPolicy(context.Background(), f.Policy(), f.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 || !rep.Findings[0].NQI.Holds {
		t.Fatalf("hospital audit should flag NQI: %+v", rep.Findings)
	}
	db := f.MustNewDB(12)
	k, err := beyond.KAnonymity(db, "SELECT DocId FROM Patients", []string{"DocId"})
	if err != nil || k < 1 {
		t.Fatalf("k-anonymity: %d %v", k, err)
	}
}
