package wrangle

import (
	"fmt"

	wctx "repro/internal/context"
	"repro/internal/core"
	"repro/internal/obs"
)

// New builds a wrangling session from functional options. With no options
// it wrangles a small synthetic product universe under a balanced user
// context — the zero-config path. Options validate eagerly; the first
// invalid option aborts construction.
func New(opts ...Option) (*Session, error) {
	s := &settings{
		domain:       Products,
		seed:         1,
		synthSources: 8,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, fmt.Errorf("wrangle: %w", err)
		}
	}

	var cfg core.Config
	switch s.domain {
	case Locations:
		cfg = core.LocationConfig()
	default:
		cfg = core.ProductConfig()
	}

	taxonomy := s.taxonomy
	if !s.taxonomySet {
		if s.domain == Locations {
			taxonomy = LocationTaxonomy()
		} else {
			taxonomy = ProductTaxonomy()
		}
	}
	dataCtx := wctx.NewDataContext().WithTaxonomy(taxonomy)
	if s.master != nil {
		dataCtx.WithMaster(s.master, s.masterKey)
	}

	userCtx := s.userCtx
	if s.sourceBudgetSet || s.feedbackBudgetSet {
		if userCtx == nil {
			userCtx = wctx.DefaultUserContext()
		} else {
			// Budgets override a copy — the caller's context is not mutated.
			clone := *userCtx
			userCtx = &clone
		}
		if s.sourceBudgetSet {
			userCtx.MaxSources = s.sourceBudget
		}
		if s.feedbackBudgetSet {
			userCtx.FeedbackBudget = s.feedbackBudget
		}
	}

	provider := s.provider
	if provider == nil {
		provider = Synthetic(s.seed, s.domain, s.synthSources)
	}

	w := core.New(provider, cfg, userCtx, dataCtx)
	w.Parallelism = s.parallelism             // 0 = auto: one worker per CPU
	w.IntegrationShards = s.integrationShards // 0 = one shard
	w.StreamingRefresh = s.streamingRefresh
	if s.retainVersions > 0 {
		// Replaced before the first run, so no reader can hold the default
		// store yet.
		w.Serve = core.NewVersionStore(s.retainVersions)
	}
	if s.watchBuffer > 0 {
		w.Serve.SetWatchBuffer(s.watchBuffer)
	}
	sess := &Session{
		w:      w,
		domain: s.domain,
	}
	if s.durableFsyncSet && s.durableDir == "" {
		return nil, fmt.Errorf("wrangle: WithDurableFsync requires WithDurableLog")
	}
	if s.durableDir != "" {
		d, err := core.OpenDurableLog(s.durableDir, s.durableFsync)
		if err != nil {
			return nil, fmt.Errorf("wrangle: %w", err)
		}
		restored, err := w.AttachDurableLog(d)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("wrangle: %w", err)
		}
		// A restored session already holds committed versions: reactions
		// may proceed without a fresh Run.
		sess.ran = restored
		sess.restored = restored
	}
	if s.metrics {
		// Last: the registry instruments the serve store and (when
		// durable) the WAL, both of which must exist first.
		w.SetMetrics(obs.NewRegistry())
	}
	return sess, nil
}
