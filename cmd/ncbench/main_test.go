package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig3a", "fig3f", "memory", "crossover"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in -list output", want)
		}
	}
}

func TestMissingExp(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing -exp accepted")
	}
}

func TestUnknownExp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AND, OR") {
		t.Errorf("table1 output:\n%s", buf.String())
	}
}

func TestRunFigureTinyWithSwap(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-exp", "fig3a", "-scale", "0.0005", "-points", "2", "-trials", "1", "-swap"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "non-canonical") {
		t.Errorf("fig3a output:\n%s", buf.String())
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-exp", "fig3a", "-scale", "0.0005", "-points", "2", "-trials", "1", "-csv"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "subs,") {
		t.Errorf("csv output:\n%s", buf.String())
	}
}

func TestRunBatchTiny(t *testing.T) {
	// Smoke the B1 experiment end to end (real loopback TCP) at tiny
	// parameters, so the batch path in the experiment binary cannot rot.
	var buf bytes.Buffer
	args := []string{"-exp", "batch", "-scale", "0.001", "-trials", "1"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "B1:") || !strings.Contains(out, "batch") {
		t.Errorf("batch output:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-exp", "federate", "-scale", "0.004", "-trials", "1", "-json"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string           `json:"experiment"`
		Points     []map[string]any `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Experiment != "federate" || len(doc.Points) == 0 {
		t.Errorf("unexpected JSON document: %+v", doc)
	}
}

func TestRunJSONRejectsAll(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "all", "-json"}, &buf); err == nil {
		t.Error("-exp all -json accepted")
	}
}
