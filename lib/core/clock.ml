type t = { mutable now_ms : int }

let create () = { now_ms = 0 }
let now t = t.now_ms
let advance t ms = if ms > 0 then t.now_ms <- t.now_ms + ms

let set t ms = t.now_ms <- ms

let elapsed_since t start = t.now_ms - start
