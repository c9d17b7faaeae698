"""Which calls the traced run wraps, and the per-layer metrics it derives.

Layers are cloudpass's modules. Span names are ``<layer>.<call>``; the
layer is the module that defines the call. Only calls that cross into a
layer from outside it are wrapped, so time spent in helpers that are not
wrapped counts as the caller's self time.

Every total is per unit (one scenario run, one fault sweep, one wire
batch), so it does not depend on how many units fit in the run.
"""

from __future__ import annotations

import statistics

from spans import Tracer

# Per-layer metrics: name -> (unit, better). The order is the print order.
PER_LAYER = {
    "scenario.parse_us_per_line": ("us", "lower"),
    "engine.self_s": ("s", "lower"),
    "events.emitted": ("count", "lower"),
    "events.report_s": ("s", "lower"),
    "events.report_bytes": ("bytes", "lower"),
    "qrlink.encode_calls": ("count", "lower"),
    "qrlink.encode_s": ("s", "lower"),
    "qrlink.encode_ms_p50": ("ms", "lower"),
    "qrlink.encode_ms_p99": ("ms", "lower"),
    "qrlink.decode_s": ("s", "lower"),
    "qrlink.qr_bits_sum": ("bits", "lower"),
    "model.page_validate_calls_per_traveler": ("count", "lower"),
    "model.place_visa_s": ("s", "lower"),
    "model.add_stamp_s": ("s", "lower"),
    "model.device_codec_us": ("us", "lower"),
    "authflow.calls": ("count", "lower"),
    "authflow.s": ("s", "lower"),
    "authflow.rejects": ("count", "lower"),
    "authflow.accept_ratio": ("ratio", "higher"),
    "authflow.redeem_otp_s": ("s", "lower"),
    "authflow.otp_miss_store_size": ("count", "lower"),
    "nfc.tap_check_calls": ("count", "lower"),
    "nfc.tap_check_us_p50": ("us", "lower"),
    "nfc.tap_check_us_p99": ("us", "lower"),
    "nfc.s": ("s", "lower"),
    "nfc.frame_bytes": ("bytes", "lower"),
    "clouds.sync_calls": ("count", "lower"),
    "clouds.sync_rows_scanned": ("count", "lower"),
    "clouds.sync_rows_replicated": ("count", "higher"),
    "clouds.sync_useful_ratio": ("ratio", "higher"),
    "clouds.sync_s": ("s", "lower"),
    "clouds.approve_s": ("s", "lower"),
    "clouds.download_s": ("s", "lower"),
    "clouds.compare.MATCH": ("count", "higher"),
    "clouds.compare.MISMATCH": ("count", "lower"),
    "clouds.compare.NOT_FOUND": ("count", "lower"),
    "immigration.checks": ("count", "higher"),
    "immigration.check_ms_p50": ("ms", "lower"),
    "immigration.check_ms_p99": ("ms", "lower"),
    "immigration.self_s": ("s", "lower"),
    "immigration.outcome.PERMIT": ("count", "higher"),
    "immigration.outcome.ISOLATE": ("count", "lower"),
    "immigration.outcome.LOCK_AND_ALERT": ("count", "lower"),
    "immigration.virtual_s_per_check": ("virtual_s", "lower"),
    **{f"wire.op_us_p50.{op}": ("us", "lower")
       for op in ("SUBMIT", "APPROVE_PASSPORT", "APPROVE_VISA", "RESOLVE",
                  "BLOB", "REPLICATE", "DESK_COPY", "COMPARE")},
    "wire.snapshot_us_p50": ("us", "lower"),
    "wire.err_replies": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_AUTH_CALLS = ("open_session", "verify_time_auth", "verify_credentials",
               "begin_image_auth", "verify_image_answer", "issue_otp",
               "redeem_otp", "make_auth_image", "make_credential")
_VERIFY_CALLS = ("verify_time_auth", "verify_credentials", "verify_image_answer")
_NFC_CALLS = ("establish", "tap_check", "tap_stamp", "send_lock")
_CLOUD_CALLS = ("submit_application", "application_status", "approve_passport",
                "approve_visa", "download_passport_app", "download_visa_image",
                "daily_sync", "receive_desk_copy", "compare_visa")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.uninstall()`` undoes it."""
    from cloudpass import authflow, clouds, immigration, model, nfc, qrlink, wire
    from cloudpass.errors import AuthError
    from cloudpass.simnet import engine, events, scenario

    counts, samples = tracer.counts, tracer.samples

    def span(module, attr, name=None, **hooks):
        layer = module.__name__.rsplit(".", 1)[-1]
        tracer.patch_function(module, attr, lambda f: tracer.wrap(
            name or f"{layer}.{attr}", f, **hooks))

    def lines_read(_, args, result, error):
        counts["scenario.lines"] += len(args[0].splitlines())

    span(scenario, "load_scenario", after=lines_read)
    span(scenario, "parse_fault")

    span(engine, "run")
    tracer.patch_table(engine._HANDLERS, lambda verb, f: tracer.wrap(
        f"engine.cmd.{verb}", f, root=True))

    def report_start(args):
        return args[1].tell()

    def report_end(start, args, result, error):
        counts["events.report_bytes"] += args[1].tell() - start

    span(events, "emit_report", before=report_start, after=report_end)
    tracer.patch_method(events.EventLog, "emit",
                        lambda f: tracer.count("events.emitted", f))

    def qr_bits(_, args, result, error):
        if result is not None:
            counts["qrlink.qr_bits"] += result.total_bits

    span(qrlink, "encode_payload", "qrlink.encode", after=qr_bits)
    span(qrlink, "decode_payload", "qrlink.decode")

    span(model, "place_visa")
    span(model, "add_stamp")
    tracer.patch_method(model.PassportPage, "validate",
                        lambda f: tracer.count("model.page_validate", f))

    def auth_outcome(verify):
        def after(_, args, result, error):
            if isinstance(error, AuthError):
                counts["authflow.rejects"] += 1
            if verify:
                counts["authflow.verify_attempts"] += 1
                counts["authflow.verify_accepts"] += error is None
        return after

    def otp_miss(args):
        store, code, transaction = args[0], args[1], args[2]
        otp = store.get(transaction)
        if otp is None or otp.code != code:
            samples["authflow.otp_miss_store_size"].append(
                len(store.by_transaction))

    for attr in _AUTH_CALLS:
        span(authflow, attr, after=auth_outcome(attr in _VERIFY_CALLS),
             before=otp_miss if attr == "redeem_otp" else None)

    for attr in _NFC_CALLS:
        span(nfc, attr)
    tracer.patch_function(nfc, "encode_frame",
                          lambda f: tracer.count("nfc.frame_bytes", f, len))

    def sync_start(args):
        return dict(args[0].replicated), len(args[2].entries)

    def sync_end(start, args, result, error):
        before, rows = start
        after = args[0].replicated
        counts["clouds.sync_rows_scanned"] += rows
        counts["clouds.sync_rows_replicated"] += sum(
            before.get(k) != v for k, v in after.items()) + len(before.keys() - after.keys())

    def compared(_, args, result, error):
        if result is not None:
            counts[f"clouds.compare.{result.value}"] += 1

    for attr in _CLOUD_CALLS:
        hooks = {}
        if attr == "daily_sync":
            hooks = {"before": sync_start, "after": sync_end}
        elif attr == "compare_visa":
            hooks = {"after": compared}
        span(clouds, attr, **hooks)

    def check_start(args):
        return args[4].now     # the clock

    def check_end(start, args, result, error):
        counts["immigration.virtual_s"] += args[4].now - start
        if result is not None:
            counts[f"immigration.outcome.{result.outcome.value}"] += 1

    span(immigration, "run_check", before=check_start, after=check_end)

    def wire_op(args):
        words = args[1].split()
        return f"wire.{words[0] if words else 'EMPTY'}"

    def wire_reply(_, args, result, error):
        if result is not None and result.startswith("ERR"):
            counts["wire.err_replies"] += 1

    for attr in ("handle_embassy_line", "handle_airport_line"):
        span(wire, attr, wire_op, root=True, after=wire_reply)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer was never reached."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def metrics(tracer: Tracer, units: int, travelers: int,
            codec_us: list[float], overhead: float) -> dict[str, float]:
    """Per-layer metrics from one traced run of ``units`` units holding
    ``travelers`` passport holders in all."""
    counts = tracer.counts
    durations = tracer.durations()
    self_s = tracer.self_times()

    def total(*names: str) -> float:
        return sum(sum(durations.get(n, ())) for n in names) / units

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) / units

    def per_unit(key: str) -> float:
        return counts[key] / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    encode = durations.get("qrlink.encode", [])
    taps = durations.get("nfc.tap_check", [])
    checks = durations.get("immigration.run_check", [])
    misses = tracer.samples.get("authflow.otp_miss_store_size", [])
    out = {
        "scenario.parse_us_per_line": 1e6 * ratio(
            sum(durations.get("scenario.load_scenario", ())), counts["scenario.lines"]),
        "engine.self_s": layer_self("engine."),
        "events.emitted": per_unit("events.emitted"),
        "events.report_s": total("events.emit_report"),
        "events.report_bytes": per_unit("events.report_bytes"),
        "qrlink.encode_calls": len(encode) / units,
        "qrlink.encode_s": total("qrlink.encode"),
        "qrlink.encode_ms_p50": 1e3 * _pct(encode, 0.50),
        "qrlink.encode_ms_p99": 1e3 * _pct(encode, 0.99),
        "qrlink.decode_s": total("qrlink.decode"),
        "qrlink.qr_bits_sum": per_unit("qrlink.qr_bits"),
        "model.page_validate_calls_per_traveler": ratio(
            counts["model.page_validate"], travelers),
        "model.place_visa_s": total("model.place_visa"),
        "model.add_stamp_s": total("model.add_stamp"),
        "model.device_codec_us": statistics.median(codec_us) if codec_us else 0.0,
        "authflow.calls": sum(len(durations.get(f"authflow.{a}", ()))
                              for a in _AUTH_CALLS) / units,
        "authflow.s": total(*(f"authflow.{a}" for a in _AUTH_CALLS)),
        "authflow.rejects": per_unit("authflow.rejects"),
        "authflow.accept_ratio": ratio(counts["authflow.verify_accepts"],
                                       counts["authflow.verify_attempts"]),
        "authflow.redeem_otp_s": total("authflow.redeem_otp"),
        "authflow.otp_miss_store_size": statistics.fmean(misses) if misses else 0.0,
        "nfc.tap_check_calls": len(taps) / units,
        "nfc.tap_check_us_p50": 1e6 * _pct(taps, 0.50),
        "nfc.tap_check_us_p99": 1e6 * _pct(taps, 0.99),
        "nfc.s": total(*(f"nfc.{a}" for a in _NFC_CALLS)),
        "nfc.frame_bytes": per_unit("nfc.frame_bytes"),
        "clouds.sync_calls": len(durations.get("clouds.daily_sync", ())) / units,
        "clouds.sync_rows_scanned": per_unit("clouds.sync_rows_scanned"),
        "clouds.sync_rows_replicated": per_unit("clouds.sync_rows_replicated"),
        "clouds.sync_useful_ratio": ratio(counts["clouds.sync_rows_replicated"],
                                          counts["clouds.sync_rows_scanned"]),
        "clouds.sync_s": total("clouds.daily_sync"),
        "clouds.approve_s": total("clouds.approve_passport", "clouds.approve_visa"),
        "clouds.download_s": total("clouds.download_passport_app",
                                   "clouds.download_visa_image"),
        "immigration.checks": len(checks) / units,
        "immigration.check_ms_p50": 1e3 * _pct(checks, 0.50),
        "immigration.check_ms_p99": 1e3 * _pct(checks, 0.99),
        "immigration.self_s": layer_self("immigration."),
        "immigration.virtual_s_per_check": ratio(counts["immigration.virtual_s"],
                                                 len(checks)),
        "wire.snapshot_us_p50": 1e6 * _pct(durations.get("wire.SNAPSHOT", []), 0.50),
        "wire.err_replies": per_unit("wire.err_replies"),
        "trace.overhead_ratio": overhead,
    }
    for key in ("clouds.compare.MATCH", "clouds.compare.MISMATCH",
                "clouds.compare.NOT_FOUND", "immigration.outcome.PERMIT",
                "immigration.outcome.ISOLATE", "immigration.outcome.LOCK_AND_ALERT"):
        out[key] = per_unit(key)
    for name in PER_LAYER:
        if name.startswith("wire.op_us_p50."):
            op = name.rsplit(".", 1)[1]
            out[name] = 1e6 * _pct(durations.get(f"wire.{op}", []), 0.50)
    return {name: out[name] for name in PER_LAYER}
