module repdir/bench

go 1.22

require repdir v0.0.0

replace repdir => ../
