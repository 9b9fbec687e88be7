module tde/bench

go 1.22

require tde v0.0.0

replace tde => ../
