module diffuse

go 1.24
