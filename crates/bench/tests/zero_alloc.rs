//! Steady-state zero-copy decode performs **zero heap allocations per
//! frame**: after the reader's record buffer has grown to the largest
//! record, `next_view` borrows every frame from it — no `Vec` per
//! payload, no per-frame header boxes.
//!
//! The counting allocator lives here because the packet crate itself
//! (rightly) forbids `unsafe`; an integration test is its own crate,
//! so the `#[global_allocator]` below scopes to this binary only. Its
//! counter is thread-local and armed only inside
//! [`allocations_during`], so the default parallel harness's other test
//! threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tdat::BgpDemux;
use tdat_bgp::TableGenerator;
use tdat_packet::{
    FrameBlock, FrameBuilder, FrameLike, MmapReader, PcapReader, PcapWriter, TcpFlags, TcpFrame,
    TcpOption,
};
use tdat_timeset::Micros;

struct CountingAllocator;

thread_local! {
    /// Whether this thread is inside a measured region. `const`
    /// initializers without destructors: touching them never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run during thread teardown, after
    // the slots are gone.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` and returns its result with the number of heap
/// allocations (including reallocations) this thread made inside it.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

// SAFETY: delegates every operation to `System`; the only addition is
// a thread-local counter whose slots need no allocation to access.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An in-memory capture whose *first* data frame carries the largest
/// payload, so one warm-up decode grows the record buffer to its
/// steady-state size.
fn capture(frames_after_warmup: usize) -> Vec<u8> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    let mut write = |frame| writer.write_frame(&frame).expect("in-memory pcap");
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(0))
            .seq(0)
            .flags(TcpFlags::SYN)
            .build(),
    );
    // Warm-up data frame: the largest record in the capture.
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(100))
            .seq(1)
            .flags(TcpFlags::ACK)
            .payload(vec![0xAB; 1448])
            .build(),
    );
    let mut seq = 1 + 1448u32;
    for i in 0..frames_after_warmup {
        let len = 600 + (i % 3) * 400; // 600/1000/1400: all ≤ warm-up size
        write(
            FrameBuilder::new(a, b)
                .ports(179, 40000)
                .at(Micros(200 + i as i64 * 50))
                .seq(seq)
                .ack_to(1)
                .flags(TcpFlags::ACK)
                .payload(vec![0xCD; len])
                .build(),
        );
        seq += len as u32;
    }
    let _ = &mut write;
    pcap
}

#[test]
fn steady_state_decode_allocates_nothing_per_frame() {
    const FRAMES: usize = 256;
    let pcap = capture(FRAMES);

    let mut reader = PcapReader::new(&pcap[..]).expect("valid pcap");
    // Warm-up: SYN plus the largest data frame sizes the record buffer.
    for _ in 0..2 {
        let view = reader.next_view().expect("valid record");
        assert!(view.is_some(), "warm-up frames present");
    }

    let ((frames, payload_bytes), allocations) = allocations_during(|| {
        let mut frames = 0usize;
        let mut payload_bytes = 0u64;
        while let Some(view) = reader.next_view().expect("valid record") {
            frames += 1;
            payload_bytes += view.payload.len() as u64;
        }
        (frames, payload_bytes)
    });

    assert_eq!(frames, FRAMES);
    assert!(payload_bytes > 0);
    assert_eq!(
        allocations, 0,
        "steady-state zero-copy decode must not allocate \
         ({allocations} allocations over {frames} frames)"
    );
}

/// Like [`capture`], but every frame carries a `Timestamps` option so
/// the decode exercises the SWAR option scan and per-slot option
/// storage. The warm-up frame is still the largest record.
fn timestamp_capture(frames_after_warmup: usize) -> Vec<u8> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    let mut write = |frame| writer.write_frame(&frame).expect("in-memory pcap");
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(0))
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Timestamps(1, 0))
            .build(),
    );
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(100))
            .seq(1)
            .flags(TcpFlags::ACK)
            .option(TcpOption::Timestamps(2, 1))
            .payload(vec![0xAB; 1448])
            .build(),
    );
    let mut seq = 1 + 1448u32;
    for i in 0..frames_after_warmup {
        let len = 600 + (i % 3) * 400;
        write(
            FrameBuilder::new(a, b)
                .ports(179, 40000)
                .at(Micros(200 + i as i64 * 50))
                .seq(seq)
                .ack_to(1)
                .flags(TcpFlags::ACK)
                .option(TcpOption::Timestamps(3 + i as u32, 2 + i as u32))
                .payload(vec![0xCD; len])
                .build(),
        );
        seq += len as u32;
    }
    let _ = &mut write;
    pcap
}

/// The mmap path borrows frames straight out of the mapping — there is
/// no record buffer to warm up, so steady state begins immediately
/// after construction.
#[test]
fn mmap_steady_state_decode_allocates_nothing_per_frame() {
    const FRAMES: usize = 256;
    let mut reader = MmapReader::from_vec(capture(FRAMES)).expect("valid pcap");
    for _ in 0..2 {
        let view = reader.next_view().expect("valid record");
        assert!(view.is_some(), "warm-up frames present");
    }

    let ((frames, payload_bytes), allocations) = allocations_during(|| {
        let mut frames = 0usize;
        let mut payload_bytes = 0u64;
        while let Some(view) = reader.next_view().expect("valid record") {
            frames += 1;
            payload_bytes += view.payload.len() as u64;
        }
        (frames, payload_bytes)
    });

    assert_eq!(frames, FRAMES);
    assert!(payload_bytes > 0);
    assert_eq!(
        allocations, 0,
        "mmap steady-state decode must not allocate \
         ({allocations} allocations over {frames} frames)"
    );
}

/// Block decode reuses the `FrameBlock`'s slots *including their
/// per-slot option storage*: after one full block has sized every
/// slot, further blocks decode frames that carry TCP options (the
/// per-frame `FrameView` path would allocate an option `Vec` for each)
/// with zero allocations.
#[test]
fn block_decode_reuses_frame_block_with_zero_allocations() {
    // 2 warm-up frames + 766 data frames = 3 exact blocks of 256.
    const AFTER_WARMUP: usize = 766;
    let mut reader = MmapReader::from_vec(timestamp_capture(AFTER_WARMUP)).expect("valid pcap");
    let mut block = FrameBlock::new();

    // Warm-up block: grows the slot vector and every slot's option
    // storage to steady state.
    let warm = reader.next_views_into(&mut block).expect("valid records");
    assert_eq!(warm.len(), 256, "first block fills completely");

    let ((frames, options), allocations) = allocations_during(|| {
        let mut frames = 0usize;
        let mut options = 0usize;
        loop {
            let views = reader.next_views_into(&mut block).expect("valid records");
            if views.is_empty() {
                break;
            }
            for frame in &views {
                frames += 1;
                options += frame.tcp().options.len();
            }
        }
        (frames, options)
    });

    assert_eq!(frames, AFTER_WARMUP + 2 - 256);
    assert_eq!(options, frames, "every frame carries its Timestamps option");
    assert_eq!(
        allocations, 0,
        "block decode with slot reuse must not allocate \
         ({allocations} allocations over {frames} option-bearing frames)"
    );
}

/// The allocating path, for contrast: `read_all` must allocate at
/// least one payload `Vec` per data frame. This guards the test
/// itself — if the counting allocator ever stopped observing the
/// decode path, this assertion would fail first.
#[test]
fn owned_decode_allocates_per_frame() {
    const FRAMES: usize = 64;
    let pcap = capture(FRAMES);
    let (frames, allocations) = allocations_during(|| {
        PcapReader::new(&pcap[..])
            .expect("valid pcap")
            .read_all()
            .expect("valid records")
    });
    assert_eq!(frames.len(), FRAMES + 2);
    assert!(
        allocations >= FRAMES as u64,
        "owned decode should allocate per frame (saw {allocations})"
    );
}

/// An in-order 8000-route table transfer as captured frames: handshake,
/// then the UPDATE stream in 1448-byte segments, each ACKed.
fn transfer_frames() -> Vec<TcpFrame> {
    let router = Ipv4Addr::new(10, 0, 0, 1);
    let collector = Ipv4Addr::new(10, 0, 0, 2);
    let stream = TableGenerator::new(8)
        .routes(8_000)
        .generate()
        .to_update_stream();
    let data = |seq: u32, at: i64| {
        FrameBuilder::new(router, collector)
            .ports(179, 40000)
            .at(Micros(at))
            .seq(seq)
            .ack_to(1)
    };
    let ack = |ack: u32, at: i64| {
        FrameBuilder::new(collector, router)
            .ports(40000, 179)
            .at(Micros(at))
            .seq(1)
            .ack_to(ack)
            .flags(TcpFlags::ACK)
            .build()
    };
    let mut frames = vec![
        data(0, 0).flags(TcpFlags::SYN).build(),
        FrameBuilder::new(collector, router)
            .ports(40000, 179)
            .at(Micros(50))
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .build(),
    ];
    let mut seq = 1u32;
    for (i, chunk) in stream.chunks(1448).enumerate() {
        let at = 100 + i as i64 * 100;
        frames.push(
            data(seq, at)
                .flags(TcpFlags::ACK)
                .payload(chunk.to_vec())
                .build(),
        );
        seq += chunk.len() as u32;
        frames.push(ack(seq, at + 50));
    }
    frames
}

/// Lazy BGP framing: feeding a whole table transfer through the demux
/// allocates only when a buffer grows — the stream arena, the message
/// index, the reassembler's hand-off buffer, the connection map — so
/// the count is logarithmic in the stream, not one (or several, as
/// owned decode needs) per message.
#[test]
fn demux_feed_allocates_only_to_grow_its_buffers() {
    let frames = transfer_frames();
    let stream_bytes: usize = frames.iter().map(|f| f.payload.len()).sum();
    let mut demux = BgpDemux::new();
    let ((), allocations) = allocations_during(|| {
        for frame in &frames {
            demux.feed(frame);
        }
    });
    let first = &frames[2];
    let extraction = demux.take(tdat_trace::ConnKey::of(first), first.src());
    let messages = extraction.messages.len();
    assert!(messages > 1_000, "{messages} messages");
    assert_eq!(extraction.unparsed_bytes, 0);
    // Doubling growth: ~log2 of the arena's bytes plus ~log2 of the
    // index's entries, with a little slack for the fixed buffers.
    let bound = (stream_bytes.ilog2() + messages.ilog2() + 8) as u64;
    assert!(
        allocations <= bound,
        "{allocations} allocations feeding {messages} messages \
         ({stream_bytes} bytes); O(log n) bound {bound}"
    );
}
