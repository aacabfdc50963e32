type t = { table : Table.t }

let create ?capacity () = { table = Table.create ?capacity () }

let table t i =
  if i <> 0 then invalid_arg (Printf.sprintf "Switch.table: no table %d" i)
  else t.table
