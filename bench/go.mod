module trinit/bench

go 1.24

require trinit v0.0.0

replace trinit => ../
