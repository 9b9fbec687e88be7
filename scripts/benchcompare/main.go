// benchcompare measures the working tree against a base commit with the
// repository benchmark, the way a performance claim has to be measured:
//
//	go run ./scripts/benchcompare -base <ref> [-pairs 10] [-workloads a,b]
//
// It checks the base out into a git worktree under .bench_build/, runs
// `bench/run.sh -repeat 1 -results` on both sides once per pair with the
// pair's seed, alternating which side goes first so a drifting host
// biases neither, merges each side's runs into one result set and hands
// the two to `bench/run.sh -compare`, which prints every (workload,
// metric) verdict against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultSet is the file bench/run.sh -results writes and -compare reads.
type resultSet struct {
	Runs []json.RawMessage `json:"runs"`
}

func run(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stdout, os.Stderr
	return cmd.Run()
}

func compare(base string, pairs int, workloads []string) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	tree := filepath.Join(root, ".bench_build", "base")
	if err := run(root, "git", "worktree", "add", "--force", "--detach", tree, base); err != nil {
		return fmt.Errorf("check out %s: %w", base, err)
	}
	defer run(root, "git", "worktree", "remove", "--force", tree)
	out := filepath.Join(root, "bench", "out", "compare")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	sides := []struct{ name, dir string }{{"base", tree}, {"change", root}}
	merged := map[string]*resultSet{"base": {}, "change": {}}
	for _, w := range workloads {
		for pair := 1; pair <= pairs; pair++ {
			for i := range sides {
				side := sides[(i+pair)%2] // odd pairs run the change first
				one := filepath.Join(out, side.name+".run.json")
				// A run with failed operations exits non-zero but still
				// writes its results; -compare counts the failures.
				_ = run(side.dir, "bash", "bench/run.sh", "-workload", w, "-seed", strconv.Itoa(pair), "-repeat", "1", "-results", one)
				raw, err := os.ReadFile(one)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", side.name, w, pair, err)
				}
				var set resultSet
				if err := json.Unmarshal(raw, &set); err != nil {
					return fmt.Errorf("%s: %w", one, err)
				}
				merged[side.name].Runs = append(merged[side.name].Runs, set.Runs...)
				_ = os.Remove(one)
			}
		}
	}
	var files []string
	for _, side := range sides {
		raw, err := json.Marshal(merged[side.name])
		if err != nil {
			return err
		}
		files = append(files, filepath.Join(out, side.name+".json"))
		if err := os.WriteFile(files[len(files)-1], raw, 0o644); err != nil {
			return err
		}
	}
	return run(root, "bash", "bench/run.sh", "-compare", files[0], files[1])
}

func main() {
	base := flag.String("base", "", "git ref of the commit to compare against")
	pairs := flag.Int("pairs", 10, "runs per side and workload")
	workloads := flag.String("workloads", "extract_build,dashboard_clean,dashboard_dirty,serve_sessions", "comma-separated workloads")
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "usage: benchcompare -base <ref> [-pairs 10] [-workloads a,b]")
		os.Exit(2)
	}
	if err := compare(*base, *pairs, strings.Split(*workloads, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}
