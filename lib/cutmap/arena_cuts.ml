let map ?jobs ?k ?priority ?pi_arrival ?subject:_ db g =
  let r = Cut_mapper.map ?jobs ?k ?priority ?pi_arrival db g in
  (r, r.Cut_mapper.par)
