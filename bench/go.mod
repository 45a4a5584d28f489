module pfi/bench

go 1.22

require pfi v0.0.0

replace pfi => ../
