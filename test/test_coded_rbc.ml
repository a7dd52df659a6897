(* Tests for the two new broadcast protocols: the erasure-coded
   (AVID/HoneyBadger-style) reliable broadcast and the Imbs-Raynal
   two-phase n > 5f broadcast — end-to-end runs under faults, plus the
   hand-computed byte-accounting checks that anchor experiment E16. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Rs = Abc.Rs
module Coded = Abc.Coded_rbc
module CodedE = Abc_net.Engine.Make (Coded)
module Ir = Abc.Ir_rbc.Binary
module IrE = Abc_net.Engine.Make (Ir)
module Ir_str = Abc.Ir_rbc.Make (Abc.Payloads.String_payload)
module Bracha_str = Abc.Bracha_rbc.Make (Abc.Payloads.String_payload)

let node = Node_id.of_int

let payload_of_len len = String.init len (fun i -> Char.chr ((i * 7) land 0xFF))

(* ---- coded rbc: end-to-end ---- *)

let run_coded ?(n = 4) ?(f = 1) ?(len = 48) ?faulty ?adversary ?(seed = 0) () =
  let inputs = Coded.inputs ~n ~sender:(node 0) (payload_of_len len) in
  CodedE.run (CodedE.config ?faulty ?adversary ~seed ~n ~f ~inputs ())

let coded_deliveries result ids =
  List.filter_map
    (fun id ->
      match result.CodedE.outputs.(Node_id.to_int id) with
      | [ (_, Coded.Delivered payload) ] -> Some payload
      | [] -> None
      | _ -> Alcotest.fail "node delivered more than once")
    ids

let test_coded_validity () =
  List.iter
    (fun (n, f, len) ->
      let result = run_coded ~n ~f ~len () in
      let delivered = coded_deliveries result (Node_id.all ~n) in
      Alcotest.(check int) (Printf.sprintf "all deliver n=%d" n) n
        (List.length delivered);
      List.iter
        (fun payload ->
          Alcotest.(check string) "payload intact" (payload_of_len len) payload)
        delivered)
    [ (4, 1, 0); (4, 1, 5); (4, 1, 48); (7, 2, 1000); (10, 3, 4096); (7, 0, 333) ]

let test_coded_validity_all_adversaries () =
  List.iter
    (fun adversary ->
      let result = run_coded ~n:7 ~f:2 ~len:500 ~adversary ~seed:5 () in
      let delivered = coded_deliveries result (Node_id.all ~n:7) in
      Alcotest.(check int)
        (Printf.sprintf "all deliver under %s" adversary.Adversary.name)
        7 (List.length delivered))
    (Adversary.all_basic ~n:7)

let test_coded_tampering_sender_safe () =
  (* A sender whose Val fragments are corrupted in flight: Merkle
     verification kills the echoes, so nobody delivers anything —
     agreement and totality hold vacuously. *)
  List.iter
    (fun seed ->
      let faulty = [ (node 0, Behaviour.Mutate Coded.Fault.tamper) ] in
      let result = run_coded ~n:4 ~f:1 ~faulty ~adversary:Adversary.uniform ~seed () in
      let delivered = coded_deliveries result [ node 1; node 2; node 3 ] in
      Alcotest.(check int)
        (Printf.sprintf "no delivery from corrupted dispersal (seed %d)" seed)
        0 (List.length delivered))
    (List.init 20 (fun i -> i))

let test_coded_two_faced_sender_agreement () =
  (* Clean fragments to half the nodes, tampered to the rest: honest
     nodes must never deliver conflicting payloads (delivering nothing
     is allowed). *)
  List.iter
    (fun seed ->
      let faulty = [ (node 0, Behaviour.Equivocate Coded.Fault.equivocate) ] in
      let result = run_coded ~n:7 ~f:2 ~len:100 ~faulty ~adversary:Adversary.uniform ~seed () in
      let delivered = coded_deliveries result (List.tl (Node_id.all ~n:7)) in
      match delivered with
      | [] -> ()
      | first :: rest ->
        List.iter
          (fun other ->
            Alcotest.(check string)
              (Printf.sprintf "agreement under two-faced sender (seed %d)" seed)
              first other)
          rest)
    (List.init 30 (fun i -> i))

let test_coded_tampering_relay_harmless () =
  (* One relay corrupting its echoes: its fragments are dropped at the
     Merkle check, the other n-1 >= n-f echoes carry the day. *)
  List.iter
    (fun seed ->
      let faulty = [ (node 3, Behaviour.Mutate Coded.Fault.tamper) ] in
      let result = run_coded ~n:7 ~f:2 ~len:200 ~faulty ~adversary:Adversary.uniform ~seed () in
      let honest = [ node 0; node 1; node 2; node 4; node 5; node 6 ] in
      let delivered = coded_deliveries result honest in
      Alcotest.(check int) "all honest deliver" 6 (List.length delivered);
      List.iter
        (fun payload ->
          Alcotest.(check string) "payload intact" (payload_of_len 200) payload)
        delivered)
    (List.init 20 (fun i -> i))

let test_coded_crash_totality () =
  let faulty = [ (node 1, Behaviour.Crash_after 2) ] in
  let result = run_coded ~n:4 ~f:1 ~faulty ~seed:3 () in
  let delivered = coded_deliveries result [ node 0; node 2; node 3 ] in
  Alcotest.(check int) "totality" 3 (List.length delivered)

(* ---- coded rbc: consistent but malformed dispersals ---- *)

module Gf = Abc.Gf

(* The data symbols a payload packs into, [Rs.symbol_bytes] big-endian
   bytes each, zero-padded to whole blocks of [k]. *)
let data_symbols ~k payload =
  let len = String.length payload in
  let count = (len + Rs.symbol_bytes - 1) / Rs.symbol_bytes in
  Array.init
    ((count + k - 1) / k * k)
    (fun s ->
      let v = ref 0 in
      for pos = s * Rs.symbol_bytes to ((s + 1) * Rs.symbol_bytes) - 1 do
        v := (!v lsl 8) lor (if pos < len then Char.code payload.[pos] else 0)
      done;
      Gf.of_int !v)

(* A genuine codeword over arbitrary data symbols: fragment [i] holds,
   for each block of [k] symbols, the value at x = i + 1 of the
   polynomial through (1, s_1) .. (k, s_k), by Lagrange interpolation
   written out here rather than taken from [Rs]. *)
let codeword ~k ~n symbols =
  let x = Gf.of_int in
  let at xi b =
    let acc = ref Gf.zero in
    for j = 1 to k do
      let w = ref Gf.one in
      for m = 1 to k do
        if m <> j then w := Gf.mul !w (Gf.div (Gf.sub (x xi) (x m)) (Gf.sub (x j) (x m)))
      done;
      acc := Gf.add !acc (Gf.mul !w symbols.((b * k) + j - 1))
    done;
    !acc
  in
  Array.init n (fun i ->
      { Rs.index = i; data = Array.init (Array.length symbols / k) (at (i + 1)) })

(* Node 0 replaces its honest dispersal by [fragments] under their own
   Merkle root: every Val it sends carries the receiver's fragment of
   that codeword with a valid branch, so every Merkle check passes. *)
let run_forged_dispersal ~n ~f ~len ~seed fragments =
  let root, branches = Rs.Merkle.commit ~len fragments in
  let forge _rng = function
    | Coded.Val { fragment; _ } ->
      let i = fragment.Rs.index in
      Coded.Val { root; len; branch = branches.(i); fragment = fragments.(i) }
    | msg -> msg
  in
  run_coded ~n ~f ~len ~faulty:[ (node 0, Behaviour.Mutate forge) ]
    ~adversary:Adversary.uniform ~seed ()

let test_coded_malformed_dispersal_rejected () =
  (* n = 7, f = 2, k = 3, 100 bytes: 34 data symbols in 12 blocks, so
     symbols 34 and 35 are padding.  A codeword with a non-zero padding
     symbol, or with a symbol >= 2^24, is consistent (any k fragments
     interpolate the same polynomials) but is not the encoding of any
     payload: decoding yields a 100-byte string that re-encodes to a
     different root.  No honest node may deliver; a validation that
     re-committed the interpolated symbols instead of the decoded
     string would deliver. *)
  let n = 7 and f = 2 and len = 100 in
  let k = Abc.Quorum.honest_support ~n ~f in
  let genuine = data_symbols ~k (payload_of_len len) in
  Alcotest.(check int) "34 symbols padded to 36" 36 (Array.length genuine);
  let with_symbol pos v =
    let symbols = Array.copy genuine in
    symbols.(pos) <- v;
    symbols
  in
  let honest = List.tl (Node_id.all ~n) in
  List.iter
    (fun seed ->
      (* Control: the same forging path on the genuine symbols is the
         honest encoding, and everyone delivers it. *)
      let control = run_forged_dispersal ~n ~f ~len ~seed (codeword ~k ~n genuine) in
      Alcotest.(check (list string))
        (Printf.sprintf "control delivers (seed %d)" seed)
        (List.map (fun _ -> payload_of_len len) honest)
        (coded_deliveries control honest);
      List.iter
        (fun (what, symbols) ->
          let result = run_forged_dispersal ~n ~f ~len ~seed (codeword ~k ~n symbols) in
          let metrics = result.CodedE.metrics in
          Alcotest.(check bool)
            (Printf.sprintf "%s: fragments verify, honest nodes echo (seed %d)" what seed)
            true
            (Abc_sim.Metrics.counter metrics "bytes.sent.echo" > 0);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: no honest node delivers (seed %d)" what seed)
            [] (coded_deliveries result honest);
          Alcotest.(check int)
            (Printf.sprintf "%s: nobody sends Ready (seed %d)" what seed)
            0
            (Abc_sim.Metrics.counter metrics "bytes.sent.ready"))
        [
          ("non-zero padding", with_symbol 35 Gf.one);
          ("symbol >= 2^24", with_symbol 4 (Gf.add genuine.(4) (Gf.of_int (1 lsl 24))));
        ])
    [ 0; 1; 2; 3 ]

(* ---- coded rbc: hand-computed byte accounting (E16's anchor) ---- *)

let test_coded_byte_accounting_n4 () =
  (* n=4, f=1, payload 48 bytes, fifo schedule.  k = n-2f = 2 shards:
       symbols  = ceil(48 / 3)   = 16
       blocks   = ceil(16 / 2)   = 8  field elements per fragment
       fragment = 4 (index) + 4*8    = 36 bytes on the wire
       branch   = 2 levels * 32      = 64   (4 leaves -> depth 2)
       Val/Echo = 1 + 32 + 4 + 64 + 36 = 137 bytes
       Ready    = 1 + 32             = 33 bytes
     Under fifo every node echoes and readies before the run stops:
       4 Vals + 16 Echoes + 16 Readies
       = 20 * 137 + 16 * 33 = 3268 bytes sent in total. *)
  let result = run_coded ~n:4 ~f:1 ~len:48 () in
  Alcotest.(check int) "all terminal" 4
    (Array.fold_left (fun acc o -> acc + List.length o) 0 result.CodedE.outputs);
  let counter = Abc_sim.Metrics.counter result.CodedE.metrics in
  Alcotest.(check int) "val bytes" (4 * 137) (counter "bytes.sent.val");
  Alcotest.(check int) "echo bytes" (16 * 137) (counter "bytes.sent.echo");
  Alcotest.(check int) "ready bytes" (16 * 33) (counter "bytes.sent.ready");
  Alcotest.(check int) "total bytes" 3268 (counter "bytes.sent")

let test_coded_beats_bracha_at_large_payloads () =
  (* The bandwidth claim in miniature (E16 sweeps this): at a 16 KiB
     payload and n=7 the coded protocol ships strictly fewer bytes per
     node than Bracha, which re-broadcasts the payload three times. *)
  let n = 7 and f = 2 and len = 16384 in
  let coded = run_coded ~n ~f ~len () in
  let module BrachaE = Abc_net.Engine.Make (Bracha_str) in
  let bracha =
    BrachaE.run
      (BrachaE.config ~n ~f
         ~inputs:(Bracha_str.inputs ~n ~sender:(node 0) (payload_of_len len))
         ())
  in
  let coded_bytes = Abc_sim.Metrics.counter coded.CodedE.metrics "bytes.sent" in
  let bracha_bytes = Abc_sim.Metrics.counter bracha.BrachaE.metrics "bytes.sent" in
  Alcotest.(check bool)
    (Printf.sprintf "coded %d < bracha %d" coded_bytes bracha_bytes)
    true (coded_bytes < bracha_bytes)

(* ---- imbs-raynal rbc ---- *)

let run_ir ?(n = 6) ?(f = 1) ?(value = Abc.Value.One) ?faulty ?adversary
    ?(seed = 0) () =
  let inputs = Ir.inputs ~n ~sender:(node 0) value in
  IrE.run (IrE.config ?faulty ?adversary ~seed ~n ~f ~inputs ())

let ir_deliveries result ids =
  List.filter_map
    (fun id ->
      match result.IrE.outputs.(Node_id.to_int id) with
      | [ (_, Ir.Delivered v) ] -> Some v
      | [] -> None
      | _ -> Alcotest.fail "node delivered more than once")
    ids

let test_ir_resilience_asserted () =
  (* n = 5, f = 1 violates n > 5f and must be refused at start-up. *)
  Alcotest.(check bool) "n=6 f=1 accepted" true
    (try
       ignore (run_ir ~n:6 ~f:1 ());
       true
     with Invalid_argument _ -> false);
  Alcotest.(check bool) "n=5 f=1 rejected" true
    (try
       ignore (run_ir ~n:5 ~f:1 ());
       false
     with Invalid_argument _ -> true)

let test_ir_validity () =
  List.iter
    (fun (n, f) ->
      let result = run_ir ~n ~f () in
      let delivered = ir_deliveries result (Node_id.all ~n) in
      Alcotest.(check int) (Printf.sprintf "all deliver n=%d" n) n
        (List.length delivered);
      List.iter
        (fun v ->
          Alcotest.(check bool) "delivers sender value" true
            (Abc.Value.equal v Abc.Value.One))
        delivered)
    [ (6, 1); (11, 2); (16, 3); (4, 0) ]

let test_ir_validity_all_adversaries () =
  List.iter
    (fun adversary ->
      let result = run_ir ~n:6 ~f:1 ~adversary ~seed:5 () in
      let delivered = ir_deliveries result (Node_id.all ~n:6) in
      Alcotest.(check int)
        (Printf.sprintf "all deliver under %s" adversary.Adversary.name)
        6 (List.length delivered))
    (Adversary.all_basic ~n:6)

let test_ir_equivocating_sender_agreement () =
  (* The two-faced sender: One to the low half, Zero to the rest.  At
     n > 5f agreement and totality must both survive: all honest nodes
     deliver the same value or none deliver. *)
  let forge _rng ~dst v =
    if Node_id.to_int dst < 3 then v else Abc.Value.negate v
  in
  List.iter
    (fun seed ->
      let faulty = [ (node 0, Behaviour.Equivocate (Ir.Fault.equivocate forge)) ] in
      let result = run_ir ~n:6 ~f:1 ~faulty ~adversary:Adversary.uniform ~seed () in
      let delivered = ir_deliveries result (List.tl (Node_id.all ~n:6)) in
      (match delivered with
      | [] -> ()
      | v :: rest ->
        List.iter
          (fun w ->
            Alcotest.(check bool)
              (Printf.sprintf "agreement under equivocation (seed %d)" seed)
              true (Abc.Value.equal v w))
          rest);
      Alcotest.(check bool)
        (Printf.sprintf "totality under equivocation (seed %d)" seed)
        true
        (List.length delivered = 0 || List.length delivered = 5))
    (List.init 50 (fun i -> i))

let test_ir_lying_relay_harmless () =
  let flip _rng v = Abc.Value.negate v in
  List.iter
    (fun seed ->
      let faulty = [ (node 5, Behaviour.Mutate (Ir.Fault.substitute flip)) ] in
      let result = run_ir ~n:6 ~f:1 ~faulty ~adversary:Adversary.uniform ~seed () in
      let delivered = ir_deliveries result (List.init 5 node) in
      Alcotest.(check int) "all honest deliver" 5 (List.length delivered);
      List.iter
        (fun v ->
          Alcotest.(check bool) "validity despite lying relay" true
            (Abc.Value.equal v Abc.Value.One))
        delivered)
    (List.init 50 (fun i -> i))

let test_ir_crash_totality () =
  let faulty = [ (node 2, Behaviour.Crash_after 3) ] in
  let result = run_ir ~n:6 ~f:1 ~faulty ~seed:7 () in
  let delivered =
    ir_deliveries result [ node 0; node 1; node 3; node 4; node 5 ]
  in
  Alcotest.(check int) "totality" 5 (List.length delivered)

let test_ir_message_count () =
  (* Two phases: n INITs + n^2 WITNESSes = n^2 + n messages, against
     Bracha's 2n^2 + n — the efficiency the resilience was traded
     for. *)
  let n = 6 in
  let result = run_ir ~n ~f:1 () in
  let sent = Abc_sim.Metrics.counter result.IrE.metrics "sent" in
  Alcotest.(check int) "n^2 + n messages" ((n * n) + n) sent

let test_ir_fewer_bytes_than_bracha () =
  (* Same payload, same n: one phase less traffic means strictly fewer
     bytes on the wire than Bracha (roughly half at large payloads). *)
  let n = 6 and f = 1 and len = 4096 in
  let payload = payload_of_len len in
  let module IrSE = Abc_net.Engine.Make (Ir_str) in
  let module BrachaE = Abc_net.Engine.Make (Bracha_str) in
  let ir =
    IrSE.run
      (IrSE.config ~n ~f ~inputs:(Ir_str.inputs ~n ~sender:(node 0) payload) ())
  in
  let bracha =
    BrachaE.run
      (BrachaE.config ~n ~f
         ~inputs:(Bracha_str.inputs ~n ~sender:(node 0) payload)
         ())
  in
  let ir_bytes = Abc_sim.Metrics.counter ir.IrSE.metrics "bytes.sent" in
  let bracha_bytes = Abc_sim.Metrics.counter bracha.BrachaE.metrics "bytes.sent" in
  Alcotest.(check bool)
    (Printf.sprintf "ir %d < bracha %d" ir_bytes bracha_bytes)
    true
    (ir_bytes < bracha_bytes)

let () =
  Alcotest.run "coded_and_ir_rbc"
    [
      ( "coded rbc",
        [
          Alcotest.test_case "validity across shapes" `Quick test_coded_validity;
          Alcotest.test_case "validity across adversaries" `Quick
            test_coded_validity_all_adversaries;
          Alcotest.test_case "tampering sender: nobody delivers" `Quick
            test_coded_tampering_sender_safe;
          Alcotest.test_case "two-faced sender: agreement" `Quick
            test_coded_two_faced_sender_agreement;
          Alcotest.test_case "tampering relay harmless" `Quick
            test_coded_tampering_relay_harmless;
          Alcotest.test_case "crashing relay: totality" `Quick
            test_coded_crash_totality;
          Alcotest.test_case "consistent malformed dispersal: nobody delivers" `Quick
            test_coded_malformed_dispersal_rejected;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "hand-computed accounting at n=4" `Quick
            test_coded_byte_accounting_n4;
          Alcotest.test_case "coded beats bracha at 16 KiB" `Quick
            test_coded_beats_bracha_at_large_payloads;
          Alcotest.test_case "ir beats bracha on bytes" `Quick
            test_ir_fewer_bytes_than_bracha;
        ] );
      ( "imbs-raynal rbc",
        [
          Alcotest.test_case "resilience bound asserted" `Quick
            test_ir_resilience_asserted;
          Alcotest.test_case "validity across shapes" `Quick test_ir_validity;
          Alcotest.test_case "validity across adversaries" `Quick
            test_ir_validity_all_adversaries;
          Alcotest.test_case "agreement+totality under equivocation" `Quick
            test_ir_equivocating_sender_agreement;
          Alcotest.test_case "lying relay harmless" `Quick
            test_ir_lying_relay_harmless;
          Alcotest.test_case "crashing relay: totality" `Quick
            test_ir_crash_totality;
          Alcotest.test_case "message complexity n^2+n" `Quick
            test_ir_message_count;
        ] );
    ]
