module onoffchain/benchmark

go 1.24

require onoffchain v0.0.0

replace onoffchain => ../
