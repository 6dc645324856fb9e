module rdfshapes/benchmark

go 1.22

require rdfshapes v0.0.0

replace rdfshapes => ../
