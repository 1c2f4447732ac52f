let map ?subject mode db a = Mapper.map_arena ?subject mode db a
