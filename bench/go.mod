module ltnc/bench

go 1.24

require ltnc v0.0.0

replace ltnc => ../
