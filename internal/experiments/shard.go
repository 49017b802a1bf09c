package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// shardTest restricts this simulator's test split to the shard's global
// episode range. The split permutation is deterministic, so every fleet
// member computes the same test membership; an episode's position in the
// test split maps back to its global campaign index via TestEpisodes.
// Union over a campaign's shards is exactly the full test split, which is
// what makes merged shard reports equal the monolithic one.
func (s *SimAssets) shardTest(sc dataset.ShardConfig) (*dataset.Dataset, error) {
	testIdx, err := s.Full.TestEpisodes(s.cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	if len(testIdx) != len(s.Test.EpisodeIndex) {
		return nil, fmt.Errorf("experiments: test split of %d episodes, index of %d", len(s.Test.EpisodeIndex), len(testIdx))
	}
	return s.Test.Filter(func(ep int) bool {
		global := testIdx[ep]
		return global >= sc.From && global < sc.To
	}), nil
}

// ShardReport returns the named monitor's evaluation report restricted to
// shard index of the campaign's count-way split, cached under the shard's
// sub-fingerprint. A shard whose episode range holds no test episodes
// yields the empty (identity) report for the surface. Folding
// eval.Report.Merge over a campaign's shard reports in shard order is
// byte-identical to the unsharded Report.
func (s *SimAssets) ShardReport(name string, count, index int) (*eval.Report, error) {
	sc, err := s.campaign.ShardAt(count, index)
	if err != nil {
		return nil, err
	}
	rc, err := s.ReportConfig(name)
	if err != nil {
		return nil, err
	}
	rc.ShardCount, rc.ShardIndex = count, index
	rep, _, err := eval.CachedReport(ActiveStore(), rc, func() (*eval.Report, error) {
		test, err := s.shardTest(sc)
		if err != nil {
			return nil, err
		}
		if len(test.EpisodeIndex) == 0 {
			// Registry names match monitor.Monitor.Name() for every monitor,
			// so the identity report validates against sibling shards.
			return eval.NewEmptyReport(s.Full.Simulator, name, s.cfg.ToleranceDelta), nil
		}
		m, err := s.Monitor(name)
		if err != nil {
			return nil, err
		}
		return eval.Evaluate(m, test, eval.Options{Tolerance: s.cfg.ToleranceDelta, Workers: Workers(), Precision: Precision()})
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: shard report %s on %v (shard %d/%d): %w", name, s.Sim, index, count, err)
	}
	return rep, nil
}

// ShardReports evaluates every (simulator, monitor) report restricted to
// one shard — the per-process unit of a fleet-sharded evaluation. The set
// lists reports in the same fixed (simulator, monitor) order as Reports,
// so per-shard sets are position-aligned for eval.MergeSets.
func ShardReports(a *Assets, count, index int) (*ReportsResult, error) {
	return reportSet(a, func(c *GridCell) (*eval.Report, error) {
		return c.SA.ShardReport(c.Monitor, count, index)
	})
}

// MergedShardReports evaluates all count shards in-process and folds their
// report sets — the single-process equivalent of a shard fleet, used by
// `apsexperiments -report -shards N` without an explicit -shard, and by
// tests pinning shard/monolith byte-equality.
func MergedShardReports(a *Assets, count int) (*ReportsResult, error) {
	sets := make([]*eval.Set, count)
	for i := 0; i < count; i++ {
		res, err := ShardReports(a, count, i)
		if err != nil {
			return nil, err
		}
		sets[i] = res.Set
	}
	merged, err := eval.MergeSets(sets)
	if err != nil {
		return nil, err
	}
	return &ReportsResult{Set: merged}, nil
}
