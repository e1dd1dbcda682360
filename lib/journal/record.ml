let magic = "J1"
let header_length = 10

(* IEEE CRC-32, bytewise table.  Hand-rolled: the toolchain image has no
   zlib binding, and ten lines of table generation beat a dependency.
   Built eagerly: a lazy table forced by two domains at once raises
   [CamlinternalLazy.Undefined], which the parallel crash matrix hit. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let put_le32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_le32 s pos =
  let byte i = Char.code s.[pos + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let frame payload =
  let b = Buffer.create (header_length + String.length payload) in
  Buffer.add_string b magic;
  put_le32 b (String.length payload);
  put_le32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let scan data =
  let len = String.length data in
  let rec loop pos acc =
    if pos + header_length > len then (List.rev acc, pos)
    else if not (String.equal (String.sub data pos 2) magic) then
      (List.rev acc, pos)
    else
      let plen = get_le32 data (pos + 2) in
      let crc = get_le32 data (pos + 6) in
      if plen < 0 || pos + header_length + plen > len then (List.rev acc, pos)
      else
        let payload = String.sub data (pos + header_length) plen in
        if crc32 payload <> crc then (List.rev acc, pos)
        else loop (pos + header_length + plen) (payload :: acc)
  in
  loop 0 []
