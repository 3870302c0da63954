// The benchmark is a module of its own, built from this directory. Its
// import path sits under barracuda/, so it may import the parent module's
// internal packages, which the replace directive finds two levels up.
module barracuda/benchmarks/e2e

go 1.22

require barracuda v0.0.0

replace barracuda => ../..
