"""Instruction-level pulse compiler for single-channel composite XY+Z control.

A program is a short list of instructions referencing a store of reusable
sample primitives, so sequences of tens of microseconds compile from well
under 100 ns of stored waveform data. A program compiles to a play schedule:
records of where each primitive plays, with its scale, and of the frame
(carrier switches, virtual-Z phases). A ``repeat`` body is expanded once and
its records tiled; virtual-Z phases add up in program order. The schedule
then fills two aligned timelines:

* a complex XY envelope — each play instruction contributes
  amplitude * primitive * exp(i(phase_offset + frame_phase));
* a real Z baseband — flux edges, holds, and idle zeros.

Synthesis modulates the envelope with a phase-continuous carrier
(x(t) = Re{env * e^{-i theta(t)}}), applies the configured FIR to the
modulated XY path and the IIR corrector to the Z path, and sums both into the
single-DAC composite. Amplitudes are normalized to DAC full scale; anything
past |1| raises instead of clipping.

Z holds may host nested instructions (an XY burst riding on a flux step);
everything else is strictly sequential.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import pathlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import ProgramParseError, SaturationError, ScheduleError, _is_integer
from .filters import FirFilter, IirCorrector, apply_iir
from .waveform import Waveform

ENVELOPE = "envelope"
EDGE = "edge"
MIN_DAC_BITS, MAX_DAC_BITS = 8, 16


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

    @property
    def duration_ns(self) -> float:
        return len(self.samples) / self.sample_rate


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
    initial_carrier: float = 0.0  # GHz

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "primitives", dict(self.primitives))
        object.__setattr__(self, "initial_carrier", float(self.initial_carrier))
        if not 0 <= self.initial_carrier < math.inf:
            raise ValueError(
                f"initial carrier must be non-negative and finite, got {self.initial_carrier}"
            )
        for pid, prim in self.primitives.items():
            if pid != prim.id:
                raise ValueError(f"store key {pid!r} does not match primitive id {prim.id!r}")
        for ref in _walk_primitive_refs(self.instructions):
            if ref not in self.primitives:
                raise ValueError(f"instruction references unknown primitive {ref!r}")

    def __eq__(self, other):
        if not isinstance(other, PulseProgram):
            return NotImplemented
        return (
            self.instructions == other.instructions
            and self.primitives == other.primitives
            and self.initial_carrier == other.initial_carrier
        )


@dataclass(frozen=True)
class SynthesisConfig:
    sample_rate: float  # GS/s
    xy_fir: FirFilter | None = None
    z_iir: IirCorrector | None = None
    dac_bits: int = 16
    dac_full_scale: float = 0.5  # volt

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        if not (_is_integer(self.dac_bits) and MIN_DAC_BITS <= self.dac_bits <= MAX_DAC_BITS):
            raise ValueError(
                f"dac_bits must be an integer within [{MIN_DAC_BITS}, {MAX_DAC_BITS}], "
                f"got {self.dac_bits!r}"
            )
        if not 0 < self.dac_full_scale < math.inf:
            raise ValueError(f"dac_full_scale must be positive and finite, got {self.dac_full_scale}")
        if self.xy_fir is not None and self.xy_fir.sample_rate != self.sample_rate:
            raise ValueError("xy_fir sample rate does not match the engine rate")
        if self.z_iir is not None and self.z_iir.sample_rate != self.sample_rate:
            raise ValueError("z_iir sample rate does not match the engine rate")


@dataclass(frozen=True)
class FrameState:
    carrier_ghz: float
    frame_phase_rad: float  # reported modulo 2 pi
    time_ns: float


@dataclass(frozen=True)
class FrameSegment:
    """Constant-carrier span: phase(t) = phase0 + 2 pi f (n - start)/rate."""

    start_index: int
    carrier_ghz: float
    carrier_phase_rad: float


@dataclass(frozen=True)
class CompiledProgram:
    xy_envelope: Waveform  # complex
    z_baseband: Waveform
    frame_segments: tuple
    final_frame: FrameState

    @property
    def sample_rate(self) -> float:
        return self.xy_envelope.sample_rate

    def __len__(self) -> int:
        return len(self.xy_envelope)


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


class _Schedule:
    """A program compiled to play records; ``finish`` writes the timelines.

    A record is (kind, start sample, primitive index or hold samples, value,
    phase offset); the value is an amplitude, a Z level, a virtual-Z phase or
    a carrier frequency. Records stay in program order: first as float
    blocks, each a ``repeat`` tiled, then as the rows added since.
    """

    def __init__(self, program: PulseProgram, rate: float):
        self.program = program
        self.rate = rate
        self.index = {pid: i for i, pid in enumerate(program.primitives)}
        self.blocks, self.rows = [], []
        self.n = 0
        self.in_hold = False

    def _flush(self) -> int:
        if self.rows:
            self.blocks.append(np.array(self.rows, dtype=float))
            self.rows = []
        return len(self.blocks)

    def _records(self, mark: int = 0) -> np.ndarray:
        self._flush()
        return np.concatenate([np.zeros((0, 5)), *self.blocks[mark:]])

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
            # to inf fails first (``_scales`` raises).
            self._scales(self._records())
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
        body = self._records(mark)
        tiled = np.tile(body, (instr.count, 1))
        tiled[:, 1] += np.repeat(np.arange(instr.count), len(body)) * (self.n - n0)
        self.blocks[mark:] = [tiled]
        self.n = n0 + int(instr.count) * (self.n - n0)

    def _scales(self, records: np.ndarray) -> tuple:
        """(amplitude * rotor of each play, as a Python complex; final frame phase).

        The frame phase adds the virtual-Z phases one by one in program
        order (``np.add.accumulate`` is sequential), as a running sum does.
        A play whose phase overflowed raises ``ScheduleError``.
        """
        is_vz, is_play = records[:, 0] == _VZ, records[:, 0] == _PLAY
        plays = records[is_play]
        with np.errstate(over="ignore", invalid="ignore"):
            frame = np.add.accumulate(np.concatenate(([0.0], records[is_vz, 3])))
            angle = plays[:, 4] + frame[np.cumsum(is_vz)[is_play]]
        finite = np.isfinite(angle)
        if not finite.all():
            raise ScheduleError(
                f"xy play {int(np.argmin(finite))} in program order: frame phase "
                "plus phase offset is not finite"
            )
        angle = angle.tolist()
        rotors = map(complex, map(math.cos, angle), map(math.sin, angle))
        scales = map(operator.mul, plays[:, 3].tolist(), rotors)
        return np.fromiter(scales, complex, len(angle)), float(frame[-1])

    def _scatter(self, out: np.ndarray, records: np.ndarray, scale: np.ndarray):
        """out[start + k] = scale * samples[k] for each record's primitive.

        The product is one flat array: numpy rounds a signed zero of a
        one-element 2-D product differently from ``scale * samples``.
        """
        starts = records[:, 1].astype(np.int64)
        for index, prim in enumerate(self.program.primitives.values()):
            mine = records[:, 2] == index
            count, length = int(mine.sum()), len(prim.samples)
            at = starts[mine, None] + np.arange(length)
            out[at.ravel()] = np.repeat(scale[mine], length) * np.tile(prim.samples, count)

    def finish(self) -> CompiledProgram:
        records = self._records()
        kind = records[:, 0]
        scales, frame_phase = self._scales(records)
        xy = np.zeros(self.n, dtype=complex)
        z = np.zeros(self.n)
        self._scatter(xy, records[kind == _PLAY], scales)
        edges, holds = records[kind == _EDGE], records[kind == _HOLD]
        self._scatter(z, edges, edges[:, 3])
        counts = holds[:, 2].astype(np.int64)
        first = np.cumsum(counts) - counts  # each hold's first place in the fill
        fill = np.arange(counts.sum()) + np.repeat(holds[:, 1].astype(np.int64) - first, counts)
        z[fill] = np.repeat(holds[:, 3], counts)

        segments = [FrameSegment(0, self.program.initial_carrier, 0.0)]
        for _, start, _, frequency, _ in records[kind == _CARRIER].tolist():
            seg, start = segments[-1], int(start)
            phase_now = seg.carrier_phase_rad + (
                2.0 * math.pi * seg.carrier_ghz * (start - seg.start_index) / self.rate
            )
            if seg.start_index == start:
                segments.pop()
            segments.append(FrameSegment(start, frequency, phase_now))
        return CompiledProgram(
            xy_envelope=Waveform(xy, self.rate),
            z_baseband=Waveform(z, self.rate),
            frame_segments=tuple(segments),
            final_frame=FrameState(
                carrier_ghz=segments[-1].carrier_ghz,
                frame_phase_rad=frame_phase % (2.0 * math.pi),
                time_ns=self.n / self.rate,
            ),
        )


def compile(program: PulseProgram, config: SynthesisConfig) -> CompiledProgram:
    """Compile a program to a play schedule and write its aligned XY-envelope
    and Z-baseband timelines from it.

    The schedule records each play, Z edge, hold, virtual Z and carrier switch
    once per instruction; a ``repeat`` body is expanded once and its records
    tiled. Phases add up in program order; one scatter per primitive fills
    each timeline.
    """
    schedule = _Schedule(program, config.sample_rate)
    schedule.build(program.instructions)
    return schedule.finish()


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def carrier_phase(compiled: CompiledProgram) -> np.ndarray:
    """Accumulated carrier phase theta[n] (radians) for every sample."""
    n_total = len(compiled)
    theta = np.empty(n_total)
    segments = compiled.frame_segments
    for i, seg in enumerate(segments):
        end = segments[i + 1].start_index if i + 1 < len(segments) else n_total
        idx = np.arange(seg.start_index, end)
        theta[idx] = seg.carrier_phase_rad + (
            2.0 * math.pi * seg.carrier_ghz * (idx - seg.start_index)
            / compiled.sample_rate
        )
    return theta


def synthesize(compiled: CompiledProgram, config: SynthesisConfig) -> Waveform:
    """Modulate, condition, and sum the two paths into the composite output.

    xy_real[n] = Re{env[n] e^{-i theta[n]}} with theta the phase-continuous
    accumulated carrier phase; the FIR acts on the modulated XY signal and the
    IIR corrector on the Z baseband; their sum must stay within DAC full
    scale.
    """
    if config.sample_rate != compiled.sample_rate:
        raise ValueError("config sample rate does not match the compiled program")
    if len(compiled) == 0:
        return Waveform(np.zeros(0), config.sample_rate)
    theta = carrier_phase(compiled)
    xy_real = np.real(compiled.xy_envelope.samples * np.exp(-1j * theta))
    if config.xy_fir is not None:
        from scipy.signal import lfilter

        xy_real = lfilter(config.xy_fir.taps_float, [1.0], xy_real)
    z = compiled.z_baseband
    if config.z_iir is not None:
        z = apply_iir(z, config.z_iir)
    composite = xy_real + z.samples
    peak_index = int(np.argmax(np.abs(composite)))
    peak = float(abs(composite[peak_index]))
    if peak > 1.0 + 1e-12:
        raise SaturationError(
            f"composite peak {peak:.6f} at sample {peak_index} exceeds full scale",
            peak=peak,
            index=peak_index,
        )
    return Waveform(composite, config.sample_rate)


def dac_quantize(w: Waveform, config: SynthesisConfig) -> np.ndarray:
    """Integer DAC codes: round-half-away-from-zero of w * (2^(bits-1) - 1)."""
    samples = np.asarray(w.samples)
    if np.iscomplexobj(samples):
        raise ValueError("quantization applies to real composites")
    peak_index = int(np.argmax(np.abs(samples))) if len(samples) else 0
    if len(samples) and abs(samples[peak_index]) > 1.0:
        raise SaturationError(
            f"sample {peak_index} at {samples[peak_index]:+.6f} exceeds full scale",
            peak=float(abs(samples[peak_index])),
            index=peak_index,
        )
    full = float(2 ** (config.dac_bits - 1) - 1)
    scaled = samples * full
    return (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int32)


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


def memory_report(program: PulseProgram, compiled: CompiledProgram) -> dict:
    """Stored-vs-emitted accounting: {stored_ns, sequence_ns, ratio}.

    stored_ns counts every primitive in the store once; sequence_ns is the
    length of ``compiled``, the program as compiled; ratio is None when
    nothing is stored (the empty program).
    """
    stored = sum(p.duration_ns for p in program.primitives.values())
    sequence = compiled.final_frame.time_ns
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


def _parse_kv(token, key, line_no, col):
    if not token.startswith(key + "="):
        raise ProgramParseError(f"expected {key}=..., got {token!r}", line_no, col)
    return token[len(key) + 1 :]


class _Parser:
    def __init__(self, text: str, sample_rate: float, base_dir=None):
        self.lines = text.splitlines()
        self.rate = sample_rate
        self.base_dir = pathlib.Path(base_dir) if base_dir else pathlib.Path.cwd()
        self.primitives: dict = {}
        self.initial_carrier: float | None = None
        self.pos = 0  # next line index

    def parse(self) -> PulseProgram:
        instructions = self._block(top_level=True)
        return PulseProgram(
            instructions=tuple(instructions),
            primitives=self.primitives,
            initial_carrier=self.initial_carrier or 0.0,
        )

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
            result = handler(toks, line_no, bool(out) or not top_level)
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

    def _line_prim(self, toks, line_no, _seen):
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
        try:
            self.primitives[pid] = PulsePrimitive(pid, tuple(values), self.rate, kind)
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[3][0]) from None
        return None

    def _line_carrier(self, toks, line_no, seen_instructions):
        if len(toks) != 2:
            raise ProgramParseError("carrier needs exactly one frequency", line_no, toks[0][0])
        freq = _parse_float(toks[1][1], line_no, toks[1][0], "frequency")
        try:
            carrier = SetCarrier(freq)
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[1][0]) from None
        if not seen_instructions and self.initial_carrier is None:
            self.initial_carrier = carrier.frequency
            return None
        return carrier

    def _line_xy(self, toks, line_no, _seen):
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
        try:
            return PlayXY(primitive_id=pid, amplitude=amp, phase_offset=phase)
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[0][0]) from None

    def _line_vz(self, toks, line_no, _seen):
        if len(toks) != 2:
            raise ProgramParseError("vz needs exactly one phase", line_no, toks[0][0])
        try:
            return VirtualZ(_parse_float(toks[1][1], line_no, toks[1][0], "phase"))
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[1][0]) from None

    def _line_delay(self, toks, line_no, _seen):
        if len(toks) != 2:
            raise ProgramParseError("delay needs exactly one duration", line_no, toks[0][0])
        dur = _parse_float(toks[1][1], line_no, toks[1][0], "duration")
        self._check_integer_samples(dur, line_no, toks[1][0], "delay")
        try:
            return Delay(dur)
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[1][0]) from None

    def _line_z(self, toks, line_no, _seen):
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
        self._check_integer_samples(dur, line_no, toks[2][0], "hold")
        body = self._maybe_open_block(toks, line_no, 4)
        try:
            return PlayZ(
                rise_primitive_id=rise,
                hold_amplitude=amp,
                hold_duration=dur,
                fall_primitive_id=fall,
                body=body or (),
            )
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[0][0]) from None

    def _line_repeat(self, toks, line_no, _seen):
        if len(toks) < 2:
            raise ProgramParseError("repeat needs a count", line_no, toks[0][0])
        try:
            count = int(toks[1][1])
        except ValueError:
            raise ProgramParseError(f"bad count {toks[1][1]!r}", line_no, toks[1][0]) from None
        body = self._maybe_open_block(toks, line_no, 2)
        if body is None:
            raise ProgramParseError("repeat needs a '{' block", line_no, toks[-1][0])
        try:
            return Repeat(count=count, body=body)
        except ValueError as exc:
            raise ProgramParseError(str(exc), line_no, toks[1][0]) from None

    def _check_integer_samples(self, duration, line_no, col, what):
        try:
            _sample_count(duration, self.rate, what)
        except ScheduleError as exc:
            raise ProgramParseError(str(exc), line_no, col) from None


def parse_program(text: str, sample_rate: float, base_dir=None) -> PulseProgram:
    """Parse the line-oriented pulse-assembly format into a validated program."""
    return _Parser(text, sample_rate, base_dir).parse()


# ---------------------------------------------------------------------------
# binary waveform IO
# ---------------------------------------------------------------------------


def dump_waveform_binary(path, codes, sample_rate: float, dac_bits: int = 16) -> dict:
    """Write little-endian int16 samples plus a JSON sidecar with a sha256."""
    path = pathlib.Path(path)
    codes = np.asarray(codes)
    limit = 2 ** (dac_bits - 1) - 1
    if len(codes) and (codes.max() > limit or codes.min() < -limit - 1):
        raise ValueError(f"codes exceed {dac_bits}-bit range")
    payload = codes.astype("<i2").tobytes()
    path.write_bytes(payload)
    meta = {
        "sample_rate_gsps": sample_rate,
        "length": int(len(codes)),
        "dac_bits": dac_bits,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta
