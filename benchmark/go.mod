module mview/benchmark

go 1.22

require mview v0.0.0

replace mview => ../
