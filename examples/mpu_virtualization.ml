(* MPU virtualization demo (Section 5.2).

     dune exec examples/mpu_virtualization.exe

   An operation that legitimately needs SIX peripherals cannot fit them in
   the four MPU regions OPEC reserves.  The monitor virtualizes the
   regions: the first four are installed at the switch; accesses to the
   other peripherals fault, and the fault handler rotates them in
   round-robin.  A seventh, unlisted peripheral stays unreachable. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor

(* six peripherals at scattered, non-adjacent addresses *)
let periphs =
  List.init 6 (fun i ->
      Peripheral.v
        (Printf.sprintf "DEV%d" i)
        ~base:(0x4000_0000 + (i * 0x10000))
        ~size:0x400)

let forbidden = Peripheral.v "FORBIDDEN" ~base:0x4800_0000 ~size:0x400

let touch_all =
  List.concat_map
    (fun (p : Peripheral.t) ->
      [ store (reg p 0x0) (c 1); load ("v_" ^ p.Peripheral.name) (reg p 0x4) ])
    periphs

let firmware ~rogue =
  let body =
    touch_all
    @ (if rogue then [ store (reg forbidden 0x0) (c 0xBAD) ] else [])
    @ [ ret0 ]
  in
  Program.v ~name:"mpu-virt"
    ~globals:[ word "scratch" ]
    ~peripherals:(forbidden :: periphs)
    ~funcs:
      [ func "busy_task" [] ~file:"app.c" body;
        func "main" [] ~file:"main.c" [ call "busy_task" []; halt ] ]
    ()

let devices () =
  List.map
    (fun (p : Peripheral.t) ->
      M.Device.stub p.Peripheral.name ~base:p.Peripheral.base ~size:p.Peripheral.size)
    (forbidden :: periphs)

let () =
  let input = C.Dev_input.v [ "busy_task" ] in
  let image = C.Compiler.compile (firmware ~rogue:false) input in
  let meta =
    match C.Image.op_of_entry image "busy_task" with
    | Some op -> Option.get (C.Image.meta_of image op.C.Operation.name)
    | None -> assert false
  in
  Format.printf "busy_task needs %d peripheral MPU regions (4 reserved slots)@."
    (List.length meta.C.Metadata.periph_regions);

  let r = Mon.Runner.run_protected ~devices:(devices ()) image in
  let stats = (Mon.Monitor.stats r.Mon.Runner.monitor) in
  Format.printf "run completed; region rotations performed: %d@."
    stats.Mon.Stats.virt_swaps;

  (* the rogue variant touches a peripheral outside the allow list *)
  let rogue_image = C.Compiler.compile (firmware ~rogue:false) input in
  let rogue_program, _ =
    C.Instrument.instrument (firmware ~rogue:true)
      rogue_image.C.Image.layout ~entries:rogue_image.C.Image.entries
  in
  let rogue_image = { rogue_image with C.Image.program = rogue_program } in
  match Mon.Runner.run_protected ~devices:(devices ()) rogue_image with
  | _ -> Format.printf "UNEXPECTED: unlisted peripheral was writable@."
  | exception Opec_exec.Interp.Aborted msg ->
    Format.printf "unlisted peripheral blocked: %s@." msg
