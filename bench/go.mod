module github.com/ideadb/idea/bench

go 1.24

require github.com/ideadb/idea v0.0.0

replace github.com/ideadb/idea => ../
