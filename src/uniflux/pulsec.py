"""Instruction-level pulse compiler for single-channel composite XY+Z control.

A program is a short list of instructions referencing a store of reusable
sample primitives, so sequences of tens of microseconds compile from well
under 100 ns of stored waveform data. A program compiles to a play schedule:
typed records of where each primitive plays, with its scale, and of the frame
(carrier switches, virtual-Z phases). The carrier is 0 GHz until a
``SetCarrier`` switches it from that sample on. A ``repeat`` body is
expanded once and its records tiled; virtual-Z phases add up in program
order. The compiled program keeps the XY plays and the Z schedule, its flux
edges and holds, with every start sample, primitive index and hold length
an int64; it holds records, not samples.

Synthesis plays the schedule as a stored-envelope generator does, one block
of ``_BLOCK`` samples at a time: each primitive is modulated with the
phase-continuous carrier (x(t) = Re{env * e^{-i theta(t)}}) and FIR-filtered
once per carrier, and each play adds it, clipped to the block, times a
complex gain. The Z edges and holds that reach the block are written from
their records and run through the IIR corrector, whose state carries to the
next block; both paths sum into the single-DAC composite. Amplitudes are
normalized to DAC full scale; anything past it raises instead of clipping,
once every block is checked. ``dac_codes`` rounds each block into one int16
buffer, so besides its records a compile holds 2 bytes per output sample;
``synthesize`` gathers the float composite, 8 bytes per sample.

Z holds may host nested instructions (an XY burst riding on a flux step);
everything else is strictly sequential.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import pathlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import ProgramParseError, SaturationError, ScheduleError, _is_integer
from .filters import FirFilter, IirCorrector, iir_blocks, round_half_away
from .filters import apply_iir  # noqa: F401  (pulsec.apply_iir: perfbench traces it)
from .waveform import NOT_FINITE, Waveform

ENVELOPE = "envelope"
EDGE = "edge"
MIN_DAC_BITS, MAX_DAC_BITS = 8, 16
FULL_SCALE = 1.0 + 1e-12  # with the rounding of a full-scale play: the top code


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PulsePrimitive:
    """A stored, normalized sample pattern (tuple so equality is exact)."""

    id: str
    samples: tuple
    sample_rate: float
    kind: str = ENVELOPE

    def __post_init__(self):
        samples = tuple(float(s) for s in self.samples)
        if not samples:
            raise ValueError(f"primitive {self.id!r} has no samples")
        if not all(abs(s) <= 1.0 for s in samples):
            raise ValueError(f"primitive {self.id!r} has samples outside [-1, 1]")
        if self.kind not in (ENVELOPE, EDGE):
            raise ValueError(f"primitive kind must be 'envelope' or 'edge', got {self.kind!r}")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class PlayXY:
    primitive_id: str
    amplitude: float = 1.0
    phase_offset: float = 0.0

    def __post_init__(self):
        if not abs(self.amplitude) <= 1.0:
            raise ValueError(f"amplitude {self.amplitude} outside [-1, 1]")
        if not math.isfinite(self.phase_offset):
            raise ValueError(f"phase offset must be finite, got {self.phase_offset}")


@dataclass(frozen=True)
class PlayZ:
    rise_primitive_id: str
    hold_amplitude: float
    hold_duration: float  # ns
    fall_primitive_id: str
    body: tuple = ()  # instructions executed during the hold

    def __post_init__(self):
        if not abs(self.hold_amplitude) <= 1.0:
            raise ValueError(f"hold amplitude {self.hold_amplitude} outside [-1, 1]")
        if not 0 <= self.hold_duration < math.inf:
            raise ValueError("hold duration must be non-negative and finite")
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class VirtualZ:
    phase: float

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError(f"virtual-Z phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class SetCarrier:
    frequency: float  # GHz

    def __post_init__(self):
        object.__setattr__(self, "frequency", float(self.frequency))
        if not 0 <= self.frequency < math.inf:
            raise ValueError(
                f"carrier frequency must be non-negative and finite, got {self.frequency}"
            )


@dataclass(frozen=True)
class Delay:
    duration: float  # ns

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError("delay must be non-negative and finite")


@dataclass(frozen=True)
class Repeat:
    count: int
    body: tuple

    def __post_init__(self):
        if not _is_integer(self.count) or self.count < 1:
            raise ValueError(f"repeat count must be an integer >= 1, got {self.count!r}")
        object.__setattr__(self, "body", tuple(self.body))


def _walk_primitive_refs(instructions):
    for instr in instructions:
        if isinstance(instr, PlayXY):
            yield instr.primitive_id
        elif isinstance(instr, PlayZ):
            yield instr.rise_primitive_id
            yield instr.fall_primitive_id
            yield from _walk_primitive_refs(instr.body)
        elif isinstance(instr, Repeat):
            yield from _walk_primitive_refs(instr.body)


@dataclass(frozen=True)
class PulseProgram:
    instructions: tuple
    primitives: dict

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "primitives", dict(self.primitives))
        for pid, prim in self.primitives.items():
            if pid != prim.id:
                raise ValueError(f"store key {pid!r} does not match primitive id {prim.id!r}")
        for ref in _walk_primitive_refs(self.instructions):
            if ref not in self.primitives:
                raise ValueError(f"instruction references unknown primitive {ref!r}")


@dataclass(frozen=True)
class SynthesisConfig:
    sample_rate: float  # GS/s
    xy_fir: FirFilter | None = None
    z_iir: IirCorrector | None = None
    dac_bits: int = 16

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        if not (_is_integer(self.dac_bits) and MIN_DAC_BITS <= self.dac_bits <= MAX_DAC_BITS):
            raise ValueError(
                f"dac_bits must be an integer within [{MIN_DAC_BITS}, {MAX_DAC_BITS}], "
                f"got {self.dac_bits!r}"
            )
        if self.xy_fir is not None and self.xy_fir.sample_rate != self.sample_rate:
            raise ValueError("xy_fir sample rate does not match the engine rate")
        if self.z_iir is not None and self.z_iir.sample_rate != self.sample_rate:
            raise ValueError("z_iir sample rate does not match the engine rate")


@dataclass(frozen=True)
class FrameSegment:
    """Constant-carrier span: phase(t) = phase0 + 2 pi f (n - start)/rate."""

    start_index: int
    carrier_ghz: float
    carrier_phase_rad: float


@dataclass(frozen=True)
class CompiledProgram:
    """XY play i puts ``xy_scales[i] * primitives[xy_primitives[i]]`` at
    sample ``xy_starts[i]``; plays are in program order and never overlap.

    The Z schedule is two typed record tables in program order: edges (int64
    ``start`` and ``primitive``, float ``level``), each putting level *
    primitive at its start, and holds (int64 ``start`` and ``samples``, float
    ``level``). Z records never overlap either; every other sample is 0.
    """

    xy_starts: np.ndarray  # int64
    xy_primitives: np.ndarray  # int64 index into ``primitives``
    xy_scales: np.ndarray  # complex: amplitude * rotor
    primitives: tuple  # sample arrays, in store order
    z_edges: np.ndarray  # _EDGES records
    z_holds: np.ndarray  # _HOLDS records
    frame_segments: tuple
    sample_rate: float
    n_samples: int

    def __len__(self) -> int:
        return self.n_samples


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _sample_count(duration_ns: float, rate: float, what: str) -> int:
    exact = duration_ns * rate
    if not (math.isfinite(exact) and abs(exact - round(exact)) <= 1e-6):
        raise ScheduleError(
            f"{what} of {duration_ns} ns is not an integer number of samples "
            f"at {rate} GS/s"
        )
    return int(round(exact))


_PLAY, _EDGE, _HOLD, _VZ, _CARRIER = range(5)  # record kinds
_RECORD = np.dtype([("kind", "i8"), ("start", "i8"), ("index", "i8"), ("value", "f8"), ("phase", "f8")])
_EDGES = np.dtype([("start", "i8"), ("primitive", "i8"), ("level", "f8")])
_HOLDS = np.dtype([("start", "i8"), ("samples", "i8"), ("level", "f8")])
_INT64_MAX = np.iinfo(np.int64).max


class _Schedule:
    """A program compiled to play records.

    A record is a ``_RECORD`` row: int64 ``kind``, ``start`` and ``index`` (a
    primitive, or a hold's samples), float ``value`` (an amplitude, Z level,
    virtual-Z phase or carrier frequency) and ``phase`` offset. Records stay
    in program order: typed blocks, each a ``repeat`` tiled, then new rows.
    """

    def __init__(self, program: PulseProgram, rate: float):
        self.program = program
        self.rate = rate
        self.index = {pid: i for i, pid in enumerate(program.primitives)}
        self.blocks, self.rows = [], []
        self.n = 0
        self.in_hold = False

    def _flush(self) -> int:
        if self.rows and self.n <= _INT64_MAX:  # past it ``finish`` refuses the program
            self.blocks.append(np.array(self.rows, _RECORD))
            self.rows = []
        return len(self.blocks)

    def _records(self, mark: int = 0) -> np.ndarray:
        self._flush()
        return np.concatenate([np.zeros(0, _RECORD), *self.blocks[mark:]])

    def _primitive(self, pid: str, want_kind: str) -> PulsePrimitive:
        prim = self.program.primitives[pid]
        if prim.kind != want_kind:
            raise ValueError(
                f"primitive {pid!r} has kind {prim.kind!r}; this instruction needs "
                f"{want_kind!r}"
            )
        if prim.sample_rate != self.rate:
            raise ValueError(
                f"primitive {pid!r} was stored at {prim.sample_rate} GS/s, engine "
                f"runs at {self.rate} GS/s"
            )
        return prim

    def build(self, instructions):
        try:
            self.run(instructions)
        except Exception:
            # Played in order, a play before the fault whose phase overflowed
            # to inf fails first (``_scales`` raises). Rows left unbuilt past
            # int64 count too, at start 0: ``_scales`` reads no start.
            pending = [(kind, 0, 0, value, phase) for kind, _, _, value, phase in self.rows]
            self._scales(np.concatenate([self._records(), np.array(pending, _RECORD)]))
            raise

    def run(self, instructions):
        for instr in instructions:
            if isinstance(instr, PlayXY):
                self._play_xy(instr)
            elif isinstance(instr, PlayZ):
                self._play_z(instr)
            elif isinstance(instr, VirtualZ):
                self.rows.append((_VZ, self.n, 0, instr.phase, 0.0))
            elif isinstance(instr, SetCarrier):
                self.rows.append((_CARRIER, self.n, 0, instr.frequency, 0.0))
            elif isinstance(instr, Delay):
                self.n += _sample_count(instr.duration, self.rate, "delay")
            elif isinstance(instr, Repeat):
                self._repeat(instr)
            else:
                raise TypeError(f"unknown instruction {type(instr).__name__}")

    def _play_xy(self, instr: PlayXY):
        prim = self._primitive(instr.primitive_id, ENVELOPE)
        self.rows.append(
            (_PLAY, self.n, self.index[prim.id], instr.amplitude, instr.phase_offset)
        )
        self.n += len(prim.samples)

    def _play_z(self, instr: PlayZ):
        if self.in_hold:
            raise ScheduleError("nested Z emission inside a Z hold is not allowed")
        rise = self._primitive(instr.rise_primitive_id, EDGE)
        fall = self._primitive(instr.fall_primitive_id, EDGE)
        amp = instr.hold_amplitude
        hold_samples = _sample_count(instr.hold_duration, self.rate, "Z hold")

        self.rows.append((_EDGE, self.n, self.index[rise.id], amp, 0.0))
        start = self.n = self.n + len(rise.samples)
        self.in_hold = True
        self.run(instr.body)
        self.in_hold = False
        used = self.n - start
        if used > hold_samples:
            raise ScheduleError(
                f"Z-hold body lasts {used / self.rate} ns, longer than the "
                f"{instr.hold_duration} ns hold"
            )
        self.n = start + hold_samples
        self.rows.append((_HOLD, start, hold_samples, amp, 0.0))
        self.rows.append((_EDGE, self.n, self.index[fall.id], amp, 0.0))
        self.n += len(fall.samples)

    def _repeat(self, instr: Repeat):
        """Compile the body once and tile its records, shifted by its length."""
        mark, n0 = self._flush(), self.n
        self.run(instr.body)
        body, length = self._records(mark), self.n - n0
        self.n = n0 + int(instr.count) * length
        if self.n <= _INT64_MAX and len(body):
            tiled = np.tile(body, instr.count)
            tiled["start"] += np.repeat(np.arange(instr.count), len(body)) * length
            self.blocks[mark:] = [tiled]

    def _scales(self, records: np.ndarray) -> np.ndarray:
        """amplitude * rotor of each play.

        The frame phase adds the virtual-Z phases one by one in program
        order (``np.add.accumulate`` is sequential), as a running sum does.
        A play whose phase overflowed raises ``ScheduleError``.
        """
        is_vz, is_play = records["kind"] == _VZ, records["kind"] == _PLAY
        with np.errstate(over="ignore", invalid="ignore"):
            frame = np.add.accumulate(np.concatenate(([0.0], records["value"][is_vz])))
            angle = records["phase"][is_play] + frame[np.cumsum(is_vz)[is_play]]
        finite = np.isfinite(angle)
        if not finite.all():
            raise ScheduleError(
                f"xy play {int(np.argmin(finite))} in program order: frame phase "
                "plus phase offset is not finite"
            )
        angle, n = angle.tolist(), len(angle)
        cos = np.fromiter(map(math.cos, angle), float, n)
        sin = np.fromiter(map(math.sin, angle), float, n)
        # The complex product (a + 0j) * rotor, written out: a*cos - 0*sin and
        # a*sin + 0*cos. The 0 * ... terms settle the sign of a zero part; a
        # bare a*sin would keep a -0.0 that the complex product makes 0.0.
        # numpy's own complex multiply may fuse a*sin + 0*cos into one FMA,
        # which keeps the -0.0 of an underflowed a*sin, so the parts are
        # rounded one operation at a time.
        amplitude, scales = records["value"][is_play], np.empty(n, complex)
        scales.real = amplitude * cos - 0.0 * sin
        scales.imag = amplitude * sin + 0.0 * cos
        return scales

    def finish(self) -> CompiledProgram:
        if self.n > _INT64_MAX:  # no int64 record could hold a start
            raise OverflowError(
                f"{self.n} samples at {self.rate} GS/s overflow an int64 sample index"
            )
        records = self._records()
        kind = records["kind"]
        scales, is_play = self._scales(records), kind == _PLAY

        segments = [FrameSegment(0, 0.0, 0.0)]
        for start, frequency in records[kind == _CARRIER][["start", "value"]].tolist():
            seg = segments[-1]
            phase_now = seg.carrier_phase_rad + (
                2.0 * math.pi * seg.carrier_ghz * (start - seg.start_index) / self.rate
            )
            if seg.start_index == start:
                segments.pop()
            segments.append(FrameSegment(start, frequency, phase_now))
        return CompiledProgram(
            xy_starts=records["start"][is_play],
            xy_primitives=records["index"][is_play],
            xy_scales=scales,
            primitives=tuple(np.array(p.samples) for p in self.program.primitives.values()),
            z_edges=records[kind == _EDGE][["start", "index", "value"]].astype(_EDGES),
            z_holds=records[kind == _HOLD][["start", "index", "value"]].astype(_HOLDS),
            frame_segments=tuple(segments),
            sample_rate=self.rate,
            n_samples=self.n,
        )


def compile(program: PulseProgram, config: SynthesisConfig) -> CompiledProgram:
    """Compile a program to its XY play schedule and its Z schedule.

    The schedule records each play, Z edge, hold, virtual Z and carrier switch
    once per instruction; a ``repeat`` body is expanded once and its records
    tiled. Phases add up in program order into each play's complex scale. No
    sample is written: the compiled program holds records only, so its size
    grows with the unrolled instruction count, not with the output length.
    """
    schedule = _Schedule(program, config.sample_rate)
    schedule.build(program.instructions)
    return schedule.finish()


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

_BLOCK = 65_536  # output samples rendered, filtered, checked and quantized at a time


def _xy_groups(compiled: CompiledProgram, fir: FirFilter | None) -> list:
    """The XY plays as (starts, gain real, gain imag, m real, m imag, length)
    groups, one per (primitive, carrier), in that key order.

    Within a frame segment the carrier phase is affine in the sample index,
    so a play at sample s contributes Re(c * m[k]) at s + k, with gain
    c = scale * e^{-i theta(s)} and m[k] = FIR(samples[k] * e^{-i omega k});
    m is computed once per group. A play whose carrier phase is not finite at
    its first or last sample raises ``ScheduleError``.
    """
    rate, starts = compiled.sample_rate, compiled.xy_starts
    segments = np.array([(s.start_index, s.carrier_ghz, s.carrier_phase_rad)
                         for s in compiled.frame_segments])
    seg_start, freq, phase0 = segments[np.searchsorted(segments[:, 0], starts, side="right") - 1].T
    last = starts - 1 + np.array([len(p) for p in compiled.primitives])[compiled.xy_primitives]
    with np.errstate(over="ignore", invalid="ignore"):  # at each play's first and last sample
        theta = phase0 + 2.0 * math.pi * freq * (np.stack([starts, last]) - seg_start) / rate
    finite = np.isfinite(theta).all(axis=0)
    if not finite.all():
        raise ScheduleError(
            f"xy play {int(np.argmin(finite))} in program order: carrier phase is not finite"
        )
    gain = compiled.xy_scales * np.exp(-1j * theta[0])
    taps = np.ones(1) if fir is None else fir.taps_float
    carriers, carrier = np.unique(freq, return_inverse=True)
    keys, group = np.unique(compiled.xy_primitives * len(carriers) + carrier, return_inverse=True)
    groups = []
    for g, key in enumerate(keys.tolist()):
        samples, f = compiled.primitives[key // len(carriers)], carriers[key % len(carriers)]
        omega_k = 2.0 * math.pi * f * np.arange(len(samples)) / rate
        m = np.convolve(samples * np.exp(-1j * omega_k), taps)
        c = gain[group == g]
        groups.append((starts[group == g], c.real.copy(), c.imag.copy(), m.real, m.imag,
                       len(samples)))
    return groups


class _Player:
    """Renders a compiled program's composite one block of samples at a time.

    The XY path adds each play's Re(c * m[k]) clipped to the block; the Z
    path writes the holds and edges that reach the block and runs them through
    the IIR corrector, whose state carries from block to block. Every sample
    gets its additions in the order a whole-array render gives them: the
    groups in key order, each group's terms by increasing k, the XY sum first
    and the Z path last.
    """

    def __init__(self, compiled: CompiledProgram, config: SynthesisConfig):
        if config.sample_rate != compiled.sample_rate:
            raise ValueError("config sample rate does not match the compiled program")
        self.groups = _xy_groups(compiled, config.xy_fir)
        self.pad = max((len(g[3]) for g in self.groups), default=1) - 1
        edges, self.holds = compiled.z_edges, compiled.z_holds
        self.edges = [(mine, samples) for index, samples in enumerate(compiled.primitives)
                      for mine in [edges[edges["primitive"] == index]] if len(mine)]
        self.hold_ends = self.holds["start"] + self.holds["samples"]  # fields are searched in place
        iir = config.z_iir
        self.iir = iir_blocks(iir) if iir is not None and iir.sections else None
        self.n = len(compiled)

    def _xy(self, start: int, stop: int) -> np.ndarray:
        """The XY sum over [start, stop).

        Every play that reaches the block adds its whole m, its samples and
        its FIR tail, into a buffer with ``pad`` spare samples on each side,
        so no term is clipped one by one. Two plays of one group lie at least
        the primitive's length apart, so the terms of a run of that many k
        reach each sample at most once: one fancy ``+=`` adds a run, and the
        runs go by increasing k.
        """
        out = np.zeros(stop - start + 2 * self.pad)
        for at, c_re, c_im, m_re, m_im, length in self.groups:
            first, end = np.searchsorted(at, (start - len(m_re) + 1, stop))
            if first == end:
                continue
            at = at[first:end, None] + (self.pad - start)
            c_re, c_im, k = c_re[first:end, None], c_im[first:end, None], np.arange(len(m_re))
            for run in (slice(k0, k0 + length) for k0 in range(0, len(m_re), length)):
                out[at + k[run]] += c_re * m_re[run] - c_im * m_im[run]
        return out[self.pad : self.pad + stop - start]

    def _z(self, start: int, stop: int) -> np.ndarray:
        """The Z path over [start, stop): holds and gaps, the edges, the IIR."""
        first = np.searchsorted(self.hold_ends, start, side="right")
        end = np.searchsorted(self.holds["start"], stop)
        bounds = np.empty(2 * (end - first) + 2, np.int64)
        bounds[0], bounds[-1] = 0, stop - start
        bounds[1:-1:2] = np.maximum(self.holds["start"][first:end], start) - start
        bounds[2:-1:2] = np.minimum(self.hold_ends[first:end], stop) - start
        levels = np.zeros(len(bounds) - 1)
        levels[1::2] = self.holds["level"][first:end]
        z = np.repeat(levels, np.diff(bounds))
        for edges, samples in self.edges:
            first, end = np.searchsorted(edges["start"], (start - len(samples) + 1, stop))
            at = edges["start"][first:end, None] + np.arange(len(samples)) - start
            inside = (at >= 0) & (at < stop - start)
            z[at[inside]] = (edges["level"][first:end, None] * samples)[inside]
        return z if self.iir is None else self.iir(z)

    def blocks(self):
        """Yield (start, composite samples) of each block of ``_BLOCK`` samples."""
        for start in range(0, self.n, _BLOCK):
            stop = min(start + _BLOCK, self.n)
            composite = self._xy(start, stop)
            composite += self._z(start, stop)
            yield start, composite


def _checked(blocks):
    """Pass on the (start, samples) blocks of a composite while it is within
    DAC full scale, then refuse it, if it must be, after the last block.

    The refusal names the largest |sample|, at its first index, not the first
    sample past ``FULL_SCALE``. A NaN sample takes precedence: the composite
    is then refused as not finite.
    """
    peak, index, nan = 0.0, 0, False
    for start, samples in blocks:
        if len(samples):
            magnitude = np.abs(samples)
            i = int(np.argmax(magnitude))  # the first NaN, if there is one
            if np.isnan(magnitude[i]):
                nan = True
            elif magnitude[i] > peak:
                peak, index = float(magnitude[i]), start + i
        if not nan and peak <= FULL_SCALE:
            yield start, samples
    if nan:
        raise ValueError(NOT_FINITE)
    if peak > FULL_SCALE:
        raise SaturationError(f"peak {peak!r} at sample {index} exceeds full scale",
                              peak=peak, index=index)


def synthesize(compiled: CompiledProgram, config: SynthesisConfig) -> Waveform:
    """Play, condition, and sum the two paths into the composite output.

    The composite is rendered in blocks of ``_BLOCK`` samples, as
    ``dac_codes`` renders it, and gathered into one float array. A sample no
    play reaches is zero, and a play whose carrier phase is not finite raises
    ``ScheduleError``. The IIR corrector runs over the Z path. The composite
    must be finite and stay within DAC full scale.
    """
    out = np.empty(len(compiled))
    for start, samples in _checked(_Player(compiled, config).blocks()):
        out[start : start + len(samples)] = samples
    return Waveform(out, config.sample_rate)


def _codes(blocks, n: int, dac_bits: int) -> np.ndarray:
    """Round-half-away-from-zero of samples * (2^(bits-1) - 1), block by
    block, into one int16 buffer of n codes."""
    codes = np.empty(n, np.int16)
    for start, samples in _checked(blocks):
        codes[start : start + len(samples)] = round_half_away(
            samples * float(2 ** (dac_bits - 1) - 1), np.int16)
    return codes


def dac_quantize(w: Waveform, config: SynthesisConfig) -> np.ndarray:
    """Integer DAC codes: round-half-away-from-zero of w * (2^(bits-1) - 1)."""
    return _codes([(0, w.samples)], len(w), config.dac_bits)


def dac_codes(compiled: CompiledProgram, config: SynthesisConfig) -> np.ndarray:
    """The program's DAC codes, ``dac_quantize(synthesize(...))``, rendered,
    filtered, checked and rounded one block at a time.

    Only the int16 codes, 2 bytes per output sample, and fixed block buffers
    are held; a refusal comes after the last block is checked.
    """
    return _codes(_Player(compiled, config).blocks(), len(compiled), config.dac_bits)


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


def memory_report(compiled: CompiledProgram) -> dict:
    """Stored-vs-emitted accounting of a compiled program:
    {stored_ns, sequence_ns, ratio}.

    stored_ns counts every primitive in the store once, at the engine rate;
    sequence_ns is the length of the compiled timeline; ratio is None when
    nothing is stored (the empty program).
    """
    stored = sum(len(p) / compiled.sample_rate for p in compiled.primitives)
    sequence = len(compiled) / compiled.sample_rate
    ratio = sequence / stored if stored > 0 else None
    return {"stored_ns": stored, "sequence_ns": sequence, "ratio": ratio}


# ---------------------------------------------------------------------------
# standard primitives
# ---------------------------------------------------------------------------


def cosine_envelope(duration_ns: float, sample_rate: float) -> np.ndarray:
    """Resonant-pulse envelope 0.5 (1 - cos(2 pi t / T)): zero ends, unit peak."""
    n = _sample_count(duration_ns, sample_rate, "envelope duration")
    if n < 2:
        raise ValueError("envelope needs at least 2 samples")
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")


def _tokens(line: str):
    """(column, token) pairs, 1-based columns, comments stripped."""
    if "#" in line:
        line = line[: line.index("#")]
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]


def _parse_float(token, line_no, col, what):
    try:
        return float(token)
    except ValueError:
        raise ProgramParseError(f"bad {what} {token!r}", line_no, col) from None


@contextlib.contextmanager
def _located(line_no, col):
    """Report a ValueError or ScheduleError raised inside as a
    ``ProgramParseError`` at (line_no, col)."""
    try:
        yield
    except (ValueError, ScheduleError) as exc:
        raise ProgramParseError(str(exc), line_no, col) from None


def _parse_kv(token, key, line_no, col):
    if not token.startswith(key + "="):
        raise ProgramParseError(f"expected {key}=..., got {token!r}", line_no, col)
    return token[len(key) + 1 :]


_ONE_NUMBER = {"carrier": (SetCarrier, "frequency"), "vz": (VirtualZ, "phase"),
               "delay": (Delay, "duration")}


class _Parser:
    def __init__(self, text: str, sample_rate: float, base_dir=None):
        self.lines = text.splitlines()
        self.rate = sample_rate
        self.base_dir = pathlib.Path(base_dir) if base_dir else pathlib.Path.cwd()
        self.primitives: dict = {}
        self.pos = 0  # next line index

    def parse(self) -> PulseProgram:
        return PulseProgram(self._block(top_level=True), self.primitives)

    def _block(self, top_level: bool) -> list:
        out: list = []
        while self.pos < len(self.lines):
            line_no = self.pos + 1
            toks = _tokens(self.lines[self.pos])
            self.pos += 1
            if not toks:
                continue
            col0, word = toks[0]
            if word == "}":
                if top_level:
                    raise ProgramParseError("unmatched '}'", line_no, col0)
                if len(toks) > 1:
                    raise ProgramParseError("'}' must end the line", line_no, toks[1][0])
                return out
            handler = getattr(self, f"_line_{word}", None)
            if handler is None:
                raise ProgramParseError(f"unknown directive {word!r}", line_no, col0)
            result = handler(toks, line_no)
            if result is not None:
                out.append(result)
        if not top_level:
            raise ProgramParseError("unterminated block: missing '}'", len(self.lines))
        return out

    def _maybe_open_block(self, toks, line_no, from_index) -> tuple | None:
        """Returns parsed body if the line ends with '{', else None."""
        if from_index < len(toks) and toks[from_index][1] == "{":
            if from_index + 1 != len(toks):
                raise ProgramParseError(
                    "'{' must end the line", line_no, toks[from_index + 1][0]
                )
            return tuple(self._block(top_level=False))
        if from_index != len(toks):
            raise ProgramParseError(
                f"unexpected token {toks[from_index][1]!r}", line_no, toks[from_index][0]
            )
        return None

    def _line_prim(self, toks, line_no):
        if len(toks) < 4:
            raise ProgramParseError("prim needs: prim <id> <kind> <values...|path>", line_no, toks[0][0])
        (_, pid), (kcol, kind) = toks[1], toks[2]
        if pid in self.primitives:
            raise ProgramParseError(f"duplicate primitive id {pid!r}", line_no, toks[1][0])
        if kind == "file":
            path = self.base_dir / toks[3][1]
            try:
                values = [float(v) for v in path.read_text().split()]
            except (OSError, ValueError) as exc:
                raise ProgramParseError(f"cannot read {path}: {exc}", line_no, toks[3][0]) from None
            if len(toks) > 4:
                raise ProgramParseError("unexpected token after path", line_no, toks[4][0])
            kind = ENVELOPE
        elif kind in (ENVELOPE, EDGE):
            values = [
                _parse_float(tok, line_no, col, "sample") for col, tok in toks[3:]
            ]
        else:
            raise ProgramParseError(
                f"primitive kind must be envelope, edge, or file, got {kind!r}",
                line_no,
                kcol,
            )
        with _located(line_no, toks[3][0]):
            self.primitives[pid] = PulsePrimitive(pid, tuple(values), self.rate, kind)
        return None

    def _line_xy(self, toks, line_no):
        if len(toks) < 2:
            raise ProgramParseError("xy needs a primitive id", line_no, toks[0][0])
        pid = toks[1][1]
        if pid not in self.primitives:
            raise ProgramParseError(f"unknown primitive {pid!r}", line_no, toks[1][0])
        amp, phase = 1.0, 0.0
        for col, tok in toks[2:]:
            if tok.startswith("amp="):
                amp = _parse_float(tok[4:], line_no, col, "amplitude")
            elif tok.startswith("phase="):
                phase = _parse_float(tok[6:], line_no, col, "phase")
            else:
                raise ProgramParseError(f"unexpected token {tok!r}", line_no, col)
        with _located(line_no, toks[0][0]):
            return PlayXY(primitive_id=pid, amplitude=amp, phase_offset=phase)

    def _one_number(self, toks, line_no):
        """``carrier <GHz>``, ``vz <rad>`` or ``delay <ns>``: one number, which
        its instruction checks (and a delay, the compiler's sample rule)."""
        col0, word = toks[0]
        cls, what = _ONE_NUMBER[word]
        if len(toks) != 2:
            raise ProgramParseError(f"{word} needs exactly one {what}", line_no, col0)
        value = _parse_float(toks[1][1], line_no, toks[1][0], what)
        with _located(line_no, toks[1][0]):
            if cls is Delay:
                _sample_count(value, self.rate, "delay")
            return cls(value)

    _line_carrier = _line_vz = _line_delay = _one_number

    def _line_z(self, toks, line_no):
        if len(toks) < 4:
            raise ProgramParseError(
                "z needs: z rise=<prim> hold=<amp>,<ns> fall=<prim>", line_no, toks[0][0]
            )
        rise = _parse_kv(toks[1][1], "rise", line_no, toks[1][0])
        hold = _parse_kv(toks[2][1], "hold", line_no, toks[2][0])
        fall = _parse_kv(toks[3][1], "fall", line_no, toks[3][0])
        for pid, (col, _) in ((rise, toks[1]), (fall, toks[3])):
            if pid not in self.primitives:
                raise ProgramParseError(f"unknown primitive {pid!r}", line_no, col)
        if "," not in hold:
            raise ProgramParseError("hold needs <amp>,<ns>", line_no, toks[2][0])
        amp_s, dur_s = hold.split(",", 1)
        amp = _parse_float(amp_s, line_no, toks[2][0], "hold amplitude")
        dur = _parse_float(dur_s, line_no, toks[2][0], "hold duration")
        with _located(line_no, toks[2][0]):
            _sample_count(dur, self.rate, "hold")
        body = self._maybe_open_block(toks, line_no, 4)
        with _located(line_no, toks[0][0]):
            return PlayZ(
                rise_primitive_id=rise,
                hold_amplitude=amp,
                hold_duration=dur,
                fall_primitive_id=fall,
                body=body or (),
            )

    def _line_repeat(self, toks, line_no):
        if len(toks) < 2:
            raise ProgramParseError("repeat needs a count", line_no, toks[0][0])
        try:
            count = int(toks[1][1])
        except ValueError:
            raise ProgramParseError(f"bad count {toks[1][1]!r}", line_no, toks[1][0]) from None
        body = self._maybe_open_block(toks, line_no, 2)
        if body is None:
            raise ProgramParseError("repeat needs a '{' block", line_no, toks[-1][0])
        with _located(line_no, toks[1][0]):
            return Repeat(count=count, body=body)


def parse_program(text: str, sample_rate: float, base_dir=None) -> PulseProgram:
    """Parse the line-oriented pulse-assembly format into a validated program."""
    return _Parser(text, sample_rate, base_dir).parse()


# ---------------------------------------------------------------------------
# binary waveform IO
# ---------------------------------------------------------------------------


def dac_payload(codes) -> tuple[np.ndarray, str, int]:
    """The little-endian int16 payload of ``codes`` (``codes`` itself when
    it already is one), its sha256 and the code count."""
    payload = np.ascontiguousarray(np.asarray(codes).astype("<i2", copy=False))
    return payload, hashlib.sha256(payload).hexdigest(), len(codes)


def dump_waveform_binary(path, codes, sample_rate: float, dac_bits: int = 16) -> dict:
    """Write little-endian int16 samples plus a JSON sidecar with a sha256."""
    path = pathlib.Path(path)
    codes = np.asarray(codes)
    limit = 2 ** (dac_bits - 1) - 1
    if len(codes) and (codes.max() > limit or codes.min() < -limit - 1):
        raise ValueError(f"codes exceed {dac_bits}-bit range")
    payload, digest, length = dac_payload(codes)
    path.write_bytes(payload)
    meta = {"sample_rate_gsps": sample_rate, "length": length, "dac_bits": dac_bits,
            "sha256": digest}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta
