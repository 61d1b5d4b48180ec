// The benchmark is a module of its own so it builds from its own build file;
// the module path sits under repro/ so it may import repro/internal/...
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
