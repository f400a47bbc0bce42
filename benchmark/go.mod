module rntree/benchmark

go 1.22

require rntree v0.0.0

replace rntree => ../
