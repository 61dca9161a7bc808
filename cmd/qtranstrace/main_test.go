package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/trace"
)

func TestGenInfoReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.qtr")

	if err := run([]string{"gen", "-dataset", "zipfian", "-scale", "0.0005",
		"-queries", "5000", "-u", "0.5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	if err := run([]string{"info", "-in", out}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"org", "intra", "inter"} {
		if err := run([]string{"replay", "-in", out, "-mode", mode, "-batch", "1000", "-workers", "2"}); err != nil {
			t.Fatalf("replay %s: %v", mode, err)
		}
	}
}

func TestGenWithRushFlag(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rush.qtr")
	if err := run([]string{"gen", "-dataset", "uniform", "-scale", "0.0005",
		"-queries", "2000", "-rush", "-out", out}); err != nil {
		t.Fatal(err)
	}
}

func TestImportCSVCommand(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "trips.csv")
	content := "a,b,c,d,e,lon,lat\n" +
		"x,x,x,x,x,-73.95,40.72\n" +
		"x,x,x,x,x,-73.96,40.73\n" +
		"x,x,x,x,x,999,999\n"
	if err := os.WriteFile(csv, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trips.qtr")
	if err := run([]string{"import", "-csv", csv, "-loncol", "5", "-latcol", "6", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", "-in", out}); err != nil {
		t.Fatal(err)
	}
}

// TestInfoCountsEveryOp checks that info tallies all five op kinds, so
// the printed per-kind counts sum to the query count.
func TestInfoCountsEveryOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.qtr")
	writeTrace(t, path, []keys.Query{
		keys.Search(1), keys.Insert(2, 20), keys.Delete(3),
		keys.Scan(1, 9, 0), keys.AddDelta(4, 1), keys.SetIfAbsent(5, 50),
	})
	var out bytes.Buffer
	if err := infoCmd([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(val); err == nil {
			got[name] = n
		}
	}
	want := map[string]int{"queries": 6, "searches": 1, "inserts": 1, "deletes": 1, "scans": 1, "rmws": 2}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s = %d, want %d\n%s", name, got[name], n, out.String())
		}
	}
	if sum := got["searches"] + got["inserts"] + got["deletes"] + got["scans"] + got["rmws"]; sum != got["queries"] {
		t.Errorf("per-kind counts sum to %d, want queries = %d", sum, got["queries"])
	}
}

func writeTrace(t *testing.T, path string, qs []keys.Query) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, keys.Number(qs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.qtr")
	writeTrace(t, in, []keys.Query{keys.Insert(1, 1), keys.Search(1)})
	out := filepath.Join(dir, "out.qtr")
	cases := [][]string{
		nil,
		{"warp"},
		{"gen"},    // missing -out
		{"info"},   // missing -in
		{"import"}, // missing -csv/-out
		{"replay"}, // missing -in
		{"replay", "-in", "/nonexistent", "-mode", "org"},
		{"replay", "-in", "/nonexistent", "-mode", "warp"},
		{"gen", "-dataset", "nope", "-out", "/tmp/x.qtr"},
		{"info", "-in", "/nonexistent"},
		{"replay", "-in", in, "-mode", "sim"},
		{"replay", "-in", in, "-batch", "0"},
		{"replay", "-in", in, "-batch", "-5"},
		{"gen", "-dataset", "uniform", "-scale", "0.0005", "-queries", "-3", "-out", out},
		{"gen", "-dataset", "uniform", "-scale", "0.0005", "-u", "7", "-out", out},
		{"gen", "-dataset", "uniform", "-scale", "0.0005", "-u", "-0.5", "-out", out},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
