module vizsched/bench

go 1.22

require vizsched v0.0.0

replace vizsched => ../
