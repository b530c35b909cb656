module sapphire/benchmark

go 1.24

require sapphire v0.0.0

replace sapphire => ../
