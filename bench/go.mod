module aqueue/bench

go 1.22

require aqueue v0.0.0

replace aqueue => ../
