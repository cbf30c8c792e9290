module deepsqueeze/benchmarks

go 1.22

require deepsqueeze v0.0.0

replace deepsqueeze => ../
