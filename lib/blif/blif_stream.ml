let read_string = Blif.read_string
