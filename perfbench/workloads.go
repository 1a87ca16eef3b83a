package main

// runCase is one scenario run: a registered scenario, a mechanism and a seed.
type runCase struct {
	scenario, mech string
	seed           int64
}

// A benchWorkload is the list of scenario runs that make up one pass. Its cases
// derive from the --seed argument; seed is the default, for which every case
// has a pinned digest. Why each workload was chosen, and which layers it
// loads and bypasses, is in README.md.
type benchWorkload struct {
	name  string
	seed  int64
	cases func(seed int64) []runCase
}

var workloads = []benchWorkload{
	{"steady-twitch", 7, func(s int64) []runCase {
		return []runCase{{"twitch", "no-scale", s}}
	}},
	{"rescale-wide", 3, func(s int64) []runCase {
		return []runCase{{"bigcluster-128", "drrs", s}}
	}},
	{"cohort-autoscale", 1, func(s int64) []runCase {
		return []runCase{{"million-users", "drrs", s}, {"million-users", "drrs", s + 1}}
	}},
	{"fault-recovery", 1, func(s int64) []runCase {
		return []runCase{
			{"node-loss-mid-migrate", "drrs", s}, {"node-loss-mid-migrate", "drrs", s + 1},
			{"flaky-uplink-retry", "drrs", s}, {"flaky-uplink-retry", "drrs", s + 1},
		}
	}},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// pins are the OutcomeDigests the repository's golden test
// (internal/bench/golden_test.go) pins for the cases above; the self-test
// checks that the two tables agree. A run of a pinned case whose digest
// differs counts as failed.
var pins = map[runCase]uint64{
	{"twitch", "no-scale", 7}:            0xe14e359c8c083a1d,
	{"bigcluster-128", "drrs", 3}:        0xc0ecb820c15b5e67,
	{"million-users", "drrs", 1}:         0x6ea3f3664d90c4d9,
	{"million-users", "drrs", 2}:         0xdc82e6b67928e013,
	{"node-loss-mid-migrate", "drrs", 1}: 0x6f6ae03c41252add,
	{"node-loss-mid-migrate", "drrs", 2}: 0x450e5f559fae31bf,
	{"flaky-uplink-retry", "drrs", 1}:    0x99d35eee7cde67c1,
	{"flaky-uplink-retry", "drrs", 2}:    0x5e4ecfed2501f675,
}
