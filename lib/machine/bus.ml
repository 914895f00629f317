(* The system bus: routes accesses to flash, SRAM, mapped devices, and the
   PPB, enforcing the protection backend and the privilege rules of
   Section 2.

   Check order models the hardware:
   1. PPB accesses require the privileged level, else bus fault;
   2. the backend checks every non-PPB access (the ARM MPU does not
      confine PPB accesses);
   3. unmapped addresses bus-fault;
   4. flash writes bus-fault (the model has no flash programming). *)

type t = {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t array;
      (** the devices reachable outside the PPB, latest attached first *)
  mutable ppb_devices : Device.t array;  (** the same for the PPB *)
  mutable prot : Backend.state;  (** the installed protection state *)
  cpu : Cpu.t;
}

let create ~(board : Memmap.board) =
  { flash = Memory.grown ~base:Memmap.flash_base ~size:board.flash_size;
    sram = Memory.create ~base:Memmap.sram_base ~size:board.sram_size;
    devices = [||];
    ppb_devices = [||];
    prot = Backend.create Backend.Mpu;
    cpu = Cpu.create () }

let in_ppb addr = addr >= Memmap.ppb_base && addr < Memmap.ppb_limit

(* A device goes on each side of the PPB boundary its window reaches,
   ahead of the devices attached before it. *)
let attach t (d : Device.t) =
  let lo = d.base and hi = d.base + d.size in
  if lo < Memmap.ppb_limit && hi > Memmap.ppb_base then
    t.ppb_devices <- Array.append [| d |] t.ppb_devices;
  if lo < Memmap.ppb_base || hi > Memmap.ppb_limit then
    t.devices <- Array.append [| d |] t.devices

(* The index of the first device in [ds] whose window holds [addr], or
   -1: no closure and no option per access. *)
let rec route (ds : Device.t array) addr i =
  if i = Array.length ds then -1
  else
    let d = Array.unsafe_get ds i in
    if addr >= d.Device.base && addr < d.Device.base + d.Device.size then i
    else route ds addr (i + 1)

let devices_at t addr = if in_ppb addr then t.ppb_devices else t.devices

let find_device t addr =
  let ds = devices_at t addr in
  match route ds addr 0 with -1 -> None | i -> Some ds.(i)

(* One cycle for a bus access: [Cpu.charge] written out, since this runs
   on every access and a cross-module call is not inlined in every build
   profile. *)
let tick t =
  let c = t.cpu in
  c.Cpu.cycles <- c.Cpu.cycles + 1

let set_protection t st = t.prot <- st
let protection t = t.prot

(* The backend check of an access made at privilege level [privileged].
   Every backend shares this path: a disabled one costs a single test,
   an enabled one a lookup in its state's decision memo, written out
   here ({!Backend.slot}, masked to the 128-entry table, so the unsafe
   read stays in bounds). *)
let check_as t ~privileged ~addr ~access =
  let s = t.prot in
  if s.Backend.on then begin
    let blk = addr asr s.Backend.shift in
    let e =
      Array.unsafe_get s.Backend.memo ((blk lxor (addr lsr 26)) land 127)
    in
    let bits = if e asr 6 = blk then e land 63 else Backend.fill s addr in
    let bit =
      match (access : Fault.access) with Read -> 1 | Write -> 2 | Execute -> 4
    in
    if bits land (if privileged then bit lsl 3 else bit) = 0 then
      raise (Fault.Mem_manage { Fault.addr; access; privileged })
  end

let prot_check t ~addr ~access =
  check_as t ~privileged:t.cpu.Cpu.privileged ~addr ~access

let fault_bus t ~addr ~access =
  raise (Fault.Bus { Fault.addr; access; privileged = t.cpu.Cpu.privileged })

(* The device access of [addr] among [ds], or a bus fault. *)
let dev_read t ds addr width =
  match route ds addr 0 with
  | -1 -> fault_bus t ~addr ~access:Fault.Read
  | i ->
    let d = Array.unsafe_get ds i in
    d.Device.read (addr - d.Device.base) width

let dev_write t ds addr width v =
  match route ds addr 0 with
  | -1 -> fault_bus t ~addr ~access:Fault.Write
  | i ->
    let d = Array.unsafe_get ds i in
    d.Device.write (addr - d.Device.base) width v

(* Read [width] bytes at [addr] honouring privilege and protection. *)
let read t addr width =
  tick t;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Read;
    dev_read t t.ppb_devices addr width
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    prot_check t ~addr ~access:Fault.Read;
    if Memory.contains t.flash addr then Memory.read t.flash addr width
    else if Memory.contains t.sram addr then Memory.read t.sram addr width
    else dev_read t t.devices addr width

let write t addr width v =
  tick t;
  match Memmap.classify addr with
  | Memmap.Ppb ->
    if not t.cpu.Cpu.privileged then fault_bus t ~addr ~access:Fault.Write;
    dev_write t t.ppb_devices addr width v
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    prot_check t ~addr ~access:Fault.Write;
    if Memory.contains t.flash addr then fault_bus t ~addr ~access:Fault.Write
    else if Memory.contains t.sram addr then Memory.write t.sram addr width v
    else dev_write t t.devices addr width v

(* Fast paths for translation-time-routed accesses (the closure-compiled
   interpreter engine): same one-cycle charge, same backend check, same fault
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
  prot_check t ~addr ~access:Fault.Read;
  Memory.get_unchecked t.sram addr width

let write_sram_int t addr width x =
  tick t;
  prot_check t ~addr ~access:Fault.Write;
  Memory.set_unchecked t.sram addr width x

let read_flash_int t addr width =
  tick t;
  prot_check t ~addr ~access:Fault.Read;
  Memory.get t.flash addr width

let read_device t addr width =
  tick t;
  prot_check t ~addr ~access:Fault.Read;
  dev_read t t.devices addr width

let write_device t addr width v =
  tick t;
  prot_check t ~addr ~access:Fault.Write;
  dev_write t t.devices addr width v

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
   backend (the monitor runs on the background map) but still route
   devices. *)
let read_raw t addr width =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.read t.flash addr width
      else if Memory.contains t.sram addr then Memory.read t.sram addr width
      else dev_read t (devices_at t addr) addr width)

let write_raw t addr width v =
  Cpu.with_privilege t.cpu (fun () ->
      if Memory.contains t.flash addr then Memory.write t.flash addr width v
      else if Memory.contains t.sram addr then Memory.write t.sram addr width v
      else dev_write t (devices_at t addr) addr width v)

(* Check an instruction fetch from [addr] (function entry). *)
let check_execute t addr =
  match Memmap.classify addr with
  | Memmap.Ppb -> fault_bus t ~addr ~access:Fault.Execute
  | Memmap.Code | Memmap.Sram | Memmap.Peripheral | Memmap.External_ram
  | Memmap.External_device | Memmap.Vendor ->
    prot_check t ~addr ~access:Fault.Execute
