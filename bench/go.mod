module doconsider/bench

go 1.23

require doconsider v0.0.0

replace doconsider => ../
