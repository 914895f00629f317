(* Tests for the memory map, memory, bus routing, and device models. *)

module M = Opec_machine

let board = M.Memmap.stm32f4_discovery

let kind_testable =
  Alcotest.testable
    (fun fmt k ->
      Fmt.string fmt
        (match k with
        | M.Memmap.Code -> "code"
        | M.Memmap.Sram -> "sram"
        | M.Memmap.Peripheral -> "peripheral"
        | M.Memmap.External_ram -> "external-ram"
        | M.Memmap.External_device -> "external-device"
        | M.Memmap.Ppb -> "ppb"
        | M.Memmap.Vendor -> "vendor"))
    ( = )

let test_memmap () =
  let check name exp addr =
    Alcotest.check kind_testable name exp (M.Memmap.classify addr)
  in
  check "flash" M.Memmap.Code 0x0800_0000;
  check "sram" M.Memmap.Sram 0x2000_0000;
  check "apb peripheral" M.Memmap.Peripheral 0x4000_4400;
  check "ahb2 peripheral" M.Memmap.Peripheral 0x5005_0000;
  check "external device" M.Memmap.External_device 0xA000_0000;
  check "ppb" M.Memmap.Ppb 0xE000_E010;
  check "vendor" M.Memmap.Vendor 0xE010_0000

let test_memory_rw () =
  let m = M.Memory.create ~base:0x2000_0000 ~size:1024 in
  M.Memory.write m 0x2000_0010 4 0xDEADBEEFL;
  Alcotest.(check int64) "word readback" 0xDEADBEEFL (M.Memory.read m 0x2000_0010 4);
  Alcotest.(check int64) "little-endian byte" 0xEFL (M.Memory.read m 0x2000_0010 1);
  Alcotest.(check int64) "byte 3" 0xDEL (M.Memory.read m 0x2000_0013 1);
  M.Memory.write m 0x2000_0011 1 0x42L;
  Alcotest.(check int64) "byte patch" 0xDEAD42EFL (M.Memory.read m 0x2000_0010 4);
  Alcotest.check_raises "out of range"
    (M.Fault.Bus { M.Fault.addr = 0x2000_0400; access = M.Fault.Read; privileged = true })
    (fun () -> ignore (M.Memory.read m 0x2000_0400 4))

let test_bus_routing () =
  let bus = M.Bus.create ~board in
  (* flash is writable only via the raw loader interface *)
  M.Bus.write_raw bus 0x0800_0100 4 77L;
  Alcotest.(check int64) "flash readable" 77L (M.Bus.read bus 0x0800_0100 4);
  (try
     M.Bus.write bus 0x0800_0100 4 1L;
     Alcotest.fail "flash write should bus-fault"
   with M.Fault.Bus _ -> ());
  (* SRAM read/write through the bus *)
  M.Bus.write bus 0x2000_0040 4 5L;
  Alcotest.(check int64) "sram" 5L (M.Bus.read bus 0x2000_0040 4);
  (* unmapped peripheral faults *)
  try
    ignore (M.Bus.read bus 0x4000_9999 4);
    Alcotest.fail "unmapped peripheral should bus-fault"
  with M.Fault.Bus _ -> ()

(* Flash is backed by the bytes written to it: the board's size still
   bounds it, and unwritten bytes read as 0. *)
let test_grown_flash () =
  let bus = M.Bus.create ~board in
  let flash = bus.M.Bus.flash in
  Alcotest.(check int) "flash spans the board's size" board.M.Memmap.flash_size
    (M.Memory.size flash);
  let last = M.Memmap.flash_base + board.M.Memmap.flash_size - 4 in
  Alcotest.(check int64) "unwritten flash reads 0" 0L (M.Bus.read bus last 4);
  M.Bus.write_raw bus 0x0800_1002 1 0xABL;
  Alcotest.(check int64) "a written byte" 0xAB0000L (M.Bus.read bus 0x0800_1000 4);
  Alcotest.(check int) "int path" 0xAB0000 (M.Bus.read_flash_int bus 0x0800_1000 4);
  Alcotest.(check int) "int path past the written bytes" 0
    (M.Bus.read_flash_int bus last 4);
  M.Bus.write_raw bus last 4 0x11223344L;
  Alcotest.(check int64) "the last word" 0x11223344L (M.Bus.read bus last 4);
  Alcotest.(check int64) "earlier bytes kept" 0xAB0000L (M.Bus.read bus 0x0800_1000 4);
  (try
     ignore (M.Bus.read bus (last + 4) 4);
     Alcotest.fail "past the board's flash should bus-fault"
   with M.Fault.Bus _ -> ())

(* Each address reaches the device [attach] made last among those whose
   window holds it, on either side of the PPB boundary. *)
let test_device_routing () =
  let bus = M.Bus.create ~board in
  let dev name base size =
    M.Device.v name ~base ~size
      ~read:(fun _ _ -> Int64.of_int (Hashtbl.hash name))
      ~write:(fun _ _ _ -> ())
  in
  let attached =
    [ dev "low" 0x4000_0000 0x400; dev "over" 0x4000_0200 0x400;
      dev "dwt" 0xE000_1000 0x400; dev "straddle" 0xDFFF_FF00 0x200;
      dev "vendor" 0xE010_0000 0x100 ]
  in
  List.iter (M.Bus.attach bus) attached;
  let expected addr =
    List.find_opt (fun d -> M.Device.contains d addr) (List.rev attached)
  in
  List.iter
    (fun addr ->
      let name = Option.map (fun d -> d.M.Device.name) in
      Alcotest.(check (option string))
        (Printf.sprintf "device at 0x%08X" addr)
        (name (expected addr))
        (name (M.Bus.find_device bus addr));
      match expected addr with
      | Some d ->
        Alcotest.(check int64)
          (Printf.sprintf "read at 0x%08X" addr)
          (Int64.of_int (Hashtbl.hash d.M.Device.name))
          (M.Bus.read_raw bus addr 4)
      | None -> ())
    [ 0x4000_0000; 0x4000_01FC; 0x4000_0200; 0x4000_03FC; 0x4000_0400;
      0x4000_05FC; 0x4000_0600; 0xDFFF_FF00; 0xDFFF_FFFC; 0xE000_0000;
      0xE000_00FC; 0xE000_0100; 0xE000_1004; 0xE010_0000; 0xE010_0100 ]

let test_ppb_privilege () =
  let bus = M.Bus.create ~board in
  M.Bus.attach bus (M.Core_periph.dwt ~cycles:(fun () -> 123L));
  Alcotest.(check int64) "privileged DWT read" 123L (M.Bus.read bus 0xE000_1004 4);
  M.Cpu.drop_privilege bus.M.Bus.cpu;
  try
    ignore (M.Bus.read bus 0xE000_1004 4);
    Alcotest.fail "unprivileged PPB access should bus-fault"
  with M.Fault.Bus info ->
    Alcotest.(check bool) "fault is unprivileged" false info.M.Fault.privileged

let test_mpu_on_bus () =
  let bus = M.Bus.create ~board in
  M.Bus.write_raw bus 0x2000_0000 4 9L;
  M.Bus.set_protection bus
    (M.Backend.make ~on:true
       (M.Backend.Mpu_regs
          (M.Mpu.make
             [ ( 0,
                 M.Mpu.region ~base:0x2000_0000 ~size_log2:8
                   ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_only
                   () ) ])));
  M.Cpu.drop_privilege bus.M.Bus.cpu;
  Alcotest.(check int64) "unpriv read allowed" 9L (M.Bus.read bus 0x2000_0000 4);
  (try
     M.Bus.write bus 0x2000_0000 4 1L;
     Alcotest.fail "unpriv write should MemManage-fault"
   with M.Fault.Mem_manage _ -> ());
  (* the monitor path: raw access bypasses the MPU *)
  M.Bus.write_raw bus 0x2000_0000 4 11L;
  Alcotest.(check int64) "raw write landed" 11L (M.Bus.read bus 0x2000_0000 4)

(* --- devices ------------------------------------------------------------ *)

let test_uart_device () =
  let dev, h = M.Uart.create ~ready_interval:3 "U" ~base:0x4000_4400 in
  M.Uart.inject h "AB";
  (* RXNE stays clear for [ready_interval] polls *)
  Alcotest.(check int64) "poll 1 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 2 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 3 not ready" 2L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "poll 4 ready" 3L (dev.M.Device.read M.Uart.sr 4);
  Alcotest.(check int64) "read A" (Int64.of_int (Char.code 'A'))
    (dev.M.Device.read M.Uart.dr 4);
  (* interval re-arms after the read *)
  Alcotest.(check int64) "re-armed" 2L (dev.M.Device.read M.Uart.sr 4);
  dev.M.Device.write M.Uart.dr 4 (Int64.of_int (Char.code 'z'));
  Alcotest.(check string) "tx log" "z" (M.Uart.transmitted h)

let test_sd_device () =
  let dev, h = M.Sd_card.create ~busy_interval:2 "SD" ~base:0x4001_2C00 in
  M.Sd_card.preload h 5 "hello world";
  dev.M.Device.write M.Sd_card.arg 4 5L;
  dev.M.Device.write M.Sd_card.cmd 4 17L;
  (* busy for two polls, then present+ready *)
  Alcotest.(check int64) "busy 1" 1L (dev.M.Device.read M.Sd_card.status 4);
  Alcotest.(check int64) "busy 2" 1L (dev.M.Device.read M.Sd_card.status 4);
  Alcotest.(check int64) "ready" 3L (dev.M.Device.read M.Sd_card.status 4);
  let w0 = dev.M.Device.read M.Sd_card.data 4 in
  Alcotest.(check int64) "first word little-endian 'hell'" 0x6C6C6568L w0;
  (* writes land in the block *)
  dev.M.Device.write M.Sd_card.arg 4 9L;
  dev.M.Device.write M.Sd_card.cmd 4 24L;
  dev.M.Device.write M.Sd_card.data 4 0x64636261L;
  Alcotest.(check string) "written block" "abcd"
    (String.sub (M.Sd_card.block h 9) 0 4)

let test_ethernet_device () =
  let dev, h = M.Ethernet.create "E" ~base:0x4002_8000 in
  Alcotest.(check int64) "no frame" 0L (dev.M.Device.read M.Ethernet.status 4);
  M.Ethernet.inject_frame h "xy";
  Alcotest.(check int64) "frame waiting" 1L (dev.M.Device.read M.Ethernet.status 4);
  Alcotest.(check int64) "length" 2L (dev.M.Device.read M.Ethernet.rx_len 4);
  Alcotest.(check int64) "byte x" (Int64.of_int (Char.code 'x'))
    (dev.M.Device.read M.Ethernet.rx_data 4);
  Alcotest.(check int64) "byte y pops" (Int64.of_int (Char.code 'y'))
    (dev.M.Device.read M.Ethernet.rx_data 4);
  Alcotest.(check int64) "queue drained" 0L (dev.M.Device.read M.Ethernet.status 4);
  dev.M.Device.write M.Ethernet.tx_data 4 65L;
  dev.M.Device.write M.Ethernet.tx_ctrl 4 1L;
  Alcotest.(check (option string)) "transmitted" (Some "A")
    (M.Ethernet.pop_transmitted h)

let test_dcmi_device () =
  let dev, h = M.Dcmi.create ~ready_interval:1 "D" ~base:0x5005_0000 in
  M.Dcmi.stage_frame h "pix";
  Alcotest.(check int64) "not captured" 0L (dev.M.Device.read M.Dcmi.status 4);
  dev.M.Device.write M.Dcmi.ctrl 4 1L;
  Alcotest.(check int64) "exposure delay" 0L (dev.M.Device.read M.Dcmi.status 4);
  Alcotest.(check int64) "frame ready" 1L (dev.M.Device.read M.Dcmi.status 4);
  Alcotest.(check int64) "length" 3L (dev.M.Device.read M.Dcmi.length 4)

let test_gpio_device () =
  let dev, h = M.Gpio.create "G" ~base:0x4002_0C00 in
  M.Gpio.set_input ~delay:2 h 0b100;
  Alcotest.(check int64) "delayed 1" 0L (dev.M.Device.read M.Gpio.idr 4);
  Alcotest.(check int64) "delayed 2" 0L (dev.M.Device.read M.Gpio.idr 4);
  Alcotest.(check int64) "visible" 4L (dev.M.Device.read M.Gpio.idr 4);
  dev.M.Device.write M.Gpio.odr 4 0xFFL;
  Alcotest.(check int) "output" 0xFF (M.Gpio.output h)

let test_usb_device () =
  let dev, h = M.Usb_msc.create "USB" ~base:0x5000_0000 in
  dev.M.Device.write M.Usb_msc.ctrl 4 1L;
  String.iter
    (fun ch -> dev.M.Device.write M.Usb_msc.data 4 (Int64.of_int (Char.code ch)))
    "photo";
  dev.M.Device.write M.Usb_msc.ctrl 4 2L;
  Alcotest.(check (option string)) "file" (Some "photo") (M.Usb_msc.pop_file h)

let test_lcd_device () =
  let dev, h = M.Lcd.create "L" ~base:0x4001_6800 in
  dev.M.Device.write M.Lcd.ctrl 4 1L;
  dev.M.Device.write M.Lcd.pixel 4 7L;
  dev.M.Device.write M.Lcd.pixel 4 8L;
  Alcotest.(check int) "frames" 1 (M.Lcd.frames h);
  Alcotest.(check int) "pixels" 2 (M.Lcd.pixels h);
  Alcotest.(check int64) "checksum" (Int64.add (Int64.mul 7L 31L) 8L) (M.Lcd.checksum h)

let suite () =
  [ ( "machine",
      [ Alcotest.test_case "memory map" `Quick test_memmap;
        Alcotest.test_case "memory read/write" `Quick test_memory_rw;
        Alcotest.test_case "bus routing" `Quick test_bus_routing;
        Alcotest.test_case "flash holds what was written" `Quick test_grown_flash;
        Alcotest.test_case "devices route as attached" `Quick test_device_routing;
        Alcotest.test_case "PPB privilege" `Quick test_ppb_privilege;
        Alcotest.test_case "MPU on the bus" `Quick test_mpu_on_bus ] );
    ( "devices",
      [ Alcotest.test_case "uart" `Quick test_uart_device;
        Alcotest.test_case "sd card" `Quick test_sd_device;
        Alcotest.test_case "ethernet" `Quick test_ethernet_device;
        Alcotest.test_case "dcmi" `Quick test_dcmi_device;
        Alcotest.test_case "gpio" `Quick test_gpio_device;
        Alcotest.test_case "usb" `Quick test_usb_device;
        Alcotest.test_case "lcd" `Quick test_lcd_device ] ) ]
