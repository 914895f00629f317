(** ARMv7-M-like machine model: memory map, MPU, privilege levels, devices.

    This library is the hardware substrate substitution described in
    DESIGN.md: everything OPEC's isolation depends on — two privilege
    levels, the 8-region MPU with sub-regions and alignment rules, the PPB
    bus-fault behaviour, and the DWT cycle counter — is modeled to the
    ARMv7-M documented semantics. *)

module Memmap = Memmap
module Fault = Fault
module Mpu = Mpu
module Pmp = Pmp
module Cheri = Cheri
module Poe = Poe
module Backend = Backend
module Memory = Memory
module Device = Device
module Cpu = Cpu
module Bus = Bus
module Uart = Uart
module Gpio = Gpio
module Sd_card = Sd_card
module Lcd = Lcd
module Ethernet = Ethernet
module Dcmi = Dcmi
module Usb_msc = Usb_msc
module Core_periph = Core_periph
