include Dagmap_subject.Subject

let to_subject g = g
