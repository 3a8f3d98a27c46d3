module uoivar/bench

go 1.22

require uoivar v0.0.0

replace uoivar => ../
