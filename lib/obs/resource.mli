(** Process resource readings for the observability layer.

    One number for now: the peak resident set size, the high-water
    mark the bench harness records per run so the flat core's memory
    footprint is visible in the benchmark trajectory alongside wall
    and CPU time. The reading is process-wide and monotone — it never
    decreases over the life of the process — so per-run values in a
    multi-run harness reflect the largest phase seen so far, not the
    marginal cost of one run; interpret deltas, or run phases in
    ascending size order (as [bench json] does: quick rows before the
    huge tier). *)

val peak_rss_bytes : unit -> int
(** Peak resident set size in bytes; [0] when the platform offers no
    reading. Prefers [/proc/self/status] ([VmHWM]) and falls back to
    [getrusage] ([ru_maxrss]) via a C stub, so it works both on Linux
    and macOS. *)
