(* The system bus: routes accesses to flash, SRAM, mapped devices, and the
   PPB, enforcing the MPU and the privilege rules of Section 2.

   Check order models the hardware:
   1. PPB accesses require the privileged level, else bus fault;
   2. the MPU checks every non-PPB access (the ARM MPU does not confine
      PPB accesses);
   3. unmapped addresses bus-fault;
   4. flash writes bus-fault (the model has no flash programming). *)

type t = {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t list;
  mpu : Mpu.t;
  mutable prot : Backend.state;
      (** the active enforcement backend; defaults to [Mpu_state mpu],
          the same MPU object, so legacy pokes through [mpu] stay
          authoritative until another backend is installed *)
  cpu : Cpu.t;
}

let create ~(board : Memmap.board) =
  let cpu = Cpu.create () in
  let mpu = Mpu.create () in
  { flash = Memory.create ~base:Memmap.flash_base ~size:board.flash_size;
    sram = Memory.create ~base:Memmap.sram_base ~size:board.sram_size;
    devices = [];
    mpu;
    prot = Backend.Mpu_state mpu;
    cpu }

let attach t d = t.devices <- d :: t.devices

let find_device t addr = List.find_opt (fun d -> Device.contains d addr) t.devices

(* One cycle for a bus access: [Cpu.charge] written out, since this runs
   on every access and a cross-module call is not inlined in every build
   profile. *)
let tick t =
  let c = t.cpu in
  c.Cpu.cycles <- c.Cpu.cycles + 1

let set_protection t st = t.prot <- st
let protection t = t.prot

(* The backend check of an access made at privilege level [privileged]. *)
let check_as t ~privileged ~addr ~access =
  match t.prot with
  (* the MPU straight from here, skipping [Backend.check]: a disabled
     MPU (baseline runs, on every bus access) costs no call at all, an
     enabled one a single memoized [Mpu.allows] *)
  | Backend.Mpu_state m ->
    if m.Mpu.enabled && not (Mpu.allows m ~privileged ~addr ~access) then
      raise (Fault.Mem_manage { Fault.addr; access; privileged })
  | st -> (
    match Backend.check st ~privileged ~addr ~access with
    | Ok () -> ()
    | Error info -> raise (Fault.Mem_manage info))

let mpu_check t ~addr ~access =
  check_as t ~privileged:t.cpu.Cpu.privileged ~addr ~access

let fault_bus t ~addr ~access =
  raise (Fault.Bus { Fault.addr; access; privileged = t.cpu.Cpu.privileged })

(* Read [width] bytes at [addr] honouring privilege and MPU. *)
let read t addr width =
  tick t;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Read;
    (match find_device t addr with
    | Some d -> d.Device.read (addr - d.Device.base) width
    | None -> fault_bus t ~addr ~access:Fault.Read)
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Read;
    if Memory.contains t.flash addr then Memory.read t.flash addr width
    else if Memory.contains t.sram addr then Memory.read t.sram addr width
    else (
      match find_device t addr with
      | Some d -> d.Device.read (addr - d.Device.base) width
      | None -> fault_bus t ~addr ~access:Fault.Read)

let write t addr width v =
  tick t;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Write;
    (match find_device t addr with
    | Some d -> d.Device.write (addr - d.Device.base) width v
    | None -> fault_bus t ~addr ~access:Fault.Write)
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Write;
    if Memory.contains t.flash addr then fault_bus t ~addr ~access:Fault.Write
    else if Memory.contains t.sram addr then Memory.write t.sram addr width v
    else (
      match find_device t addr with
      | Some d -> d.Device.write (addr - d.Device.base) width v
      | None -> fault_bus t ~addr ~access:Fault.Write)

(* Fast paths for translation-time-routed accesses (the closure-compiled
   interpreter engine): same one-cycle charge, same MPU check, same fault
   behaviour as [read]/[write] for an address whose region is already
   known — only the region classification and the memory-range scans are
   skipped.  Callers guarantee the routing precondition (e.g. the address
   is in SRAM range for [read_sram_int]).  The memory paths carry the
   value as a native int, for 1- and 4-byte accesses (4 bytes always
   fit): the compiled engine moves words between memory and its
   byte-string frames in this form, so a load or store boxes no
   [int64]. *)
let read_sram_int t addr width =
  tick t;
  mpu_check t ~addr ~access:Fault.Read;
  Memory.get_unchecked t.sram addr width

let write_sram_int t addr width x =
  tick t;
  mpu_check t ~addr ~access:Fault.Write;
  Memory.set_unchecked t.sram addr width x

let read_flash_int t addr width =
  tick t;
  mpu_check t ~addr ~access:Fault.Read;
  Memory.get_unchecked t.flash addr width

let read_device t addr width =
  tick t;
  mpu_check t ~addr ~access:Fault.Read;
  match find_device t addr with
  | Some d -> d.Device.read (addr - d.Device.base) width
  | None -> fault_bus t ~addr ~access:Fault.Read

let write_device t addr width v =
  tick t;
  mpu_check t ~addr ~access:Fault.Write;
  match find_device t addr with
  | Some d -> d.Device.write (addr - d.Device.base) width v
  | None -> fault_bus t ~addr ~access:Fault.Write

(* Privileged word primitives for the monitor's SRAM copies: each access
   is a privileged [read_sram_int]/[write_sram_int] — the same one-cycle
   charge, then the same backend check at the privileged level — without
   raising the CPU's level.  Callers prove the ranges lie in SRAM with
   [in_sram]; [width] is 1 or 4. *)
let in_sram t addr bytes = Memory.in_range t.sram addr bytes

let copy_sram_word t ~src ~dst width =
  tick t;
  check_as t ~privileged:true ~addr:src ~access:Fault.Read;
  let v = Memory.get_unchecked t.sram src width in
  tick t;
  check_as t ~privileged:true ~addr:dst ~access:Fault.Write;
  Memory.set_unchecked t.sram dst width v

let equal_sram_word t ~a ~b width =
  tick t;
  check_as t ~privileged:true ~addr:a ~access:Fault.Read;
  let va = Memory.get_unchecked t.sram a width in
  tick t;
  check_as t ~privileged:true ~addr:b ~access:Fault.Read;
  va = Memory.get_unchecked t.sram b width

(* Privileged raw accessors for the monitor and the loader: bypass the
   MPU (the monitor runs on the background map) but still route devices. *)
let read_raw t addr width =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.read t.flash addr width
      else if Memory.contains t.sram addr then Memory.read t.sram addr width
      else
        match find_device t addr with
        | Some d -> d.Device.read (addr - d.Device.base) width
        | None -> fault_bus t ~addr ~access:Fault.Read)

let write_raw t addr width v =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.write t.flash addr width v
      else if Memory.contains t.sram addr then Memory.write t.sram addr width v
      else
        match find_device t addr with
        | Some d -> d.Device.write (addr - d.Device.base) width v
        | None -> fault_bus t ~addr ~access:Fault.Write)

(* Check an instruction fetch from [addr] (function entry). *)
let check_execute t addr =
  match Memmap.classify addr with
  | Memmap.Ppb -> fault_bus t ~addr ~access:Fault.Execute
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    mpu_check t ~addr ~access:Fault.Execute
