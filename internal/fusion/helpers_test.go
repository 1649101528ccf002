package fusion

// EstimateTrust groups claims and runs the trust estimation at one
// worker, returning options with the estimated trust filled in.
func EstimateTrust(claims []Claim, opts Options) Options {
	opts, _ = EstimateTrustParallel(claims, opts, 1)
	return opts
}

// EstimateTrustWarm groups claims and runs the warm trust estimation at
// one worker against prev.
func EstimateTrustWarm(claims []Claim, opts Options, prev *TrustMemo) (Options, *TrustMemo, bool) {
	out, memo, skipped, _ := EstimateTrustWarmParallel(claims, opts, prev, 1)
	return out, memo, skipped
}
