let map = Cut_mapper.map_arena
