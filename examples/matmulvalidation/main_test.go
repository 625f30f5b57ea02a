package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden pins everything the example prints to
// testdata/stdout.golden, so a drift in any number it reports fails
// here. Regenerate with EXTRAP_GOLDEN_UPDATE=1 only for an intended
// change of answers.
func TestStdoutGolden(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "stdout.golden")
	if os.Getenv("EXTRAP_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden regenerated")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with EXTRAP_GOLDEN_UPDATE=1): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
