module github.com/spcube/spcube/benchmark

go 1.22

require github.com/spcube/spcube v0.0.0

replace github.com/spcube/spcube => ../
