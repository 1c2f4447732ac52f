let map ?subject:_ mode db g = Mapper.map mode db g
