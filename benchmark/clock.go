package main

import "time"

// now is the benchmark's single wall-clock boundary: every duration the
// harness reports is a difference of two now() reads taken outside the
// program, around calls into its public functions.
func now() time.Time {
	//nvolint:ignore noclock measuring wall time is the benchmark's purpose; nothing the program computes depends on it, and the output check proves every result byte is clock-independent
	return time.Now()
}

// since is the wall time elapsed from t0, in seconds.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }
