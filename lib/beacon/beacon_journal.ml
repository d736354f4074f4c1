exception Corrupt_journal of string

type sync_policy = Fsync | Flush_only

let corrupt fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt_journal msg)) fmt

(* ------------------------ crash injection ------------------------- *)

module Crash_point = struct
  exception Crashed

  type mode = Off | Counting of int ref | Budget of int ref

  let mode = ref Off

  let rec write_all fd buf pos len =
    if len > 0 then begin
      let n = Unix.write fd buf pos len in
      write_all fd buf (pos + n) (len - n)
    end

  (* Every byte of journal/snapshot traffic funnels through here, so an
     armed budget simulates SIGKILL at an exact byte offset: the write
     that overruns it lands only its first [remaining] bytes — the torn
     write — and the process is presumed dead from then on. *)
  let guarded_write fd buf =
    let len = Bytes.length buf in
    match !mode with
    | Off -> write_all fd buf 0 len
    | Counting c ->
        c := !c + len;
        write_all fd buf 0 len
    | Budget b ->
        if !b >= len then begin
          b := !b - len;
          write_all fd buf 0 len
        end
        else begin
          let part = !b in
          b := 0;
          write_all fd buf 0 part;
          raise Crashed
        end

  (* Metadata operations (renames) are one durability point each, so
     the sweep also exercises "crashed between the data and the
     rename". *)
  let tick () =
    match !mode with
    | Off -> ()
    | Counting c -> incr c
    | Budget b -> if !b >= 1 then decr b else raise Crashed

  let arm m f ~finally =
    (match !mode with
    | Off -> ()
    | _ -> invalid_arg "Beacon_journal.Crash_point: already armed");
    mode := m;
    Fun.protect ~finally:(fun () -> mode := Off) (fun () -> finally (f ()))

  let count f =
    let c = ref 0 in
    arm (Counting c) f ~finally:(fun x -> (x, !c))

  let with_budget budget f =
    if budget < 0 then
      invalid_arg "Beacon_journal.Crash_point.with_budget: negative budget";
    let b = ref budget in
    match arm (Budget b) f ~finally:(fun x -> `Completed x) with
    | outcome -> outcome
    | exception Crashed -> `Crashed
end

(* --------------------------- file format -------------------------- *)

let magic = 0xBEA2
let version = 1
let header_bytes () = Wire.Envelope.header ~magic ~version

(* ---------------------------- writing ----------------------------- *)

type writer = {
  path : string;
  sync_policy : sync_policy;
  fd : Unix.file_descr;
  mutable next_record_seq : int;
  mutable closed : bool;
}

let path w = w.path

let maybe_fsync w =
  match w.sync_policy with Fsync -> Unix.fsync w.fd | Flush_only -> ()

let sync w = if not w.closed then Unix.fsync w.fd

let close w =
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

let open_writer ~sync_policy ~next_record_seq ~trunc path =
  let flags =
    Unix.[ O_WRONLY; O_CREAT; O_CLOEXEC ] @ if trunc then [ Unix.O_TRUNC ] else []
  in
  let fd = Unix.openfile path flags 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { path; sync_policy; fd; next_record_seq; closed = false }

let create ?(sync = Fsync) path =
  let w = open_writer ~sync_policy:sync ~next_record_seq:0 ~trunc:true path in
  (try Crash_point.guarded_write w.fd (header_bytes ())
   with e ->
     close w;
     raise e);
  maybe_fsync w;
  w

let append w body =
  if w.closed then invalid_arg "Beacon_journal.append: writer is closed";
  let payload = Wire.Writer.create () in
  Wire.Writer.u32 payload w.next_record_seq;
  Wire.Writer.raw payload body;
  (* One write for the whole record: a crash splits it at a byte
     offset, never interleaves. The record seq is claimed only after
     the bytes are down, so a crashed append leaves it unconsumed. *)
  Crash_point.guarded_write w.fd
    (Wire.Envelope.frame (Wire.Writer.contents payload));
  w.next_record_seq <- w.next_record_seq + 1;
  maybe_fsync w

(* ---------------------------- recovery ---------------------------- *)

type recovery = {
  records : bytes list;
  next_record_seq : int;
  valid_len : int;
  torn_bytes : int;
}

let recover jpath =
  let finish ~valid_len ~next_record_seq records torn_bytes =
    { records = List.rev records; next_record_seq; valid_len; torn_bytes }
  in
  if not (Sys.file_exists jpath) then
    finish ~valid_len:0 ~next_record_seq:0 [] 0
  else
    let data =
      Bytes.of_string (In_channel.with_open_bin jpath In_channel.input_all)
    in
    let size = Bytes.length data in
    (* A frame that runs past end-of-file, or a checksum failure on the
       record that ends exactly at end-of-file, is a torn write: only
       the final append can be cut short by a crash. The same failures
       with bytes after them cannot be torn and are fatal. *)
    let rec scan pos seq records =
      let torn () =
        finish ~valid_len:pos ~next_record_seq:seq records (size - pos)
      in
      if pos >= size then torn ()
      else
        match Wire.Envelope.parse_frame data pos with
        | Short -> torn ()
        | Bad_checksum { next } when next = size -> torn ()
        | Bad_checksum { next } ->
            corrupt
              "record %d at offset %d: checksum mismatch with %d bytes \
               following — mid-journal corruption, not a torn tail"
              seq pos (size - next)
        | Intact { payload; next } ->
            let len = Bytes.length payload in
            if len < 4 then
              corrupt "record %d at offset %d: intact but only %d bytes long"
                seq pos len;
            let r = Wire.Reader.of_bytes payload in
            let rseq = Wire.Reader.u32 r in
            if rseq <> seq then
              corrupt
                "record sequence gap at offset %d: expected record %d, found \
                 %d"
                pos seq rseq;
            scan next (seq + 1) (Wire.Reader.raw r (len - 4) :: records)
    in
    match
      Wire.Envelope.read_header ~magic ~readable:(version, version) data
    with
    | Ok _ -> scan Wire.Envelope.header_len 0 []
    | Error Wire.Envelope.Truncated_header ->
        (* The crash landed inside the initial header write: nothing was
           ever durable, so the whole file is the torn tail. *)
        finish ~valid_len:0 ~next_record_seq:0 [] size
    | Error (Wire.Envelope.Unsupported_version v) ->
        corrupt "unsupported journal version %d" v
    | Error _ -> corrupt "not a beacon journal (bad magic) [bytes=%d]" size

let open_append ?(sync = Fsync) jpath =
  let r = recover jpath in
  if r.valid_len < Wire.Envelope.header_len then
    (* New file, or the header itself was torn: start clean. *)
    (r, create ~sync jpath)
  else begin
    if r.torn_bytes > 0 then
      Unix.truncate jpath r.valid_len;
    let w =
      open_writer ~sync_policy:sync ~next_record_seq:r.next_record_seq
        ~trunc:false jpath
    in
    (r, w)
  end

let fsync_fd fd = Unix.fsync fd

let write_file_atomic ?(fsync = true) fpath bytes =
  let tmp = fpath ^ ".tmp" in
  let fd =
    Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Crash_point.guarded_write fd bytes;
      if fsync then fsync_fd fd);
  Crash_point.tick ();
  Sys.rename tmp fpath

let reset ?(sync = Fsync) jpath =
  write_file_atomic ~fsync:(sync = Fsync) jpath (header_bytes ());
  open_writer ~sync_policy:sync ~next_record_seq:0 ~trunc:false jpath
