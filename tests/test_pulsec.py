import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dac_dequantize,
    load_waveform_binary,
    raised_cosine_edge,
    serialize_program,
    unrolled_compile,
)
from uniflux import dynamics, filters, pulsec
from uniflux.errors import ProgramParseError, SaturationError, ScheduleError
from uniflux.pulsec import (
    Delay,
    PlayXY,
    PlayZ,
    PulsePrimitive,
    PulseProgram,
    Repeat,
    SetCarrier,
    SynthesisConfig,
    VirtualZ,
)

RATE = 1.0
CONFIG = SynthesisConfig(sample_rate=RATE)


def _store(*prims):
    return {p.id: p for p in prims}


COS20 = PulsePrimitive("cos20", tuple(pulsec.cosine_envelope(20.0, RATE)), RATE, "envelope")
FLAT8 = PulsePrimitive("flat8", (0.5,) * 8, RATE, "envelope")
EDGE4 = PulsePrimitive("edge4", tuple(raised_cosine_edge(4.0, RATE)), RATE, "edge")
FALL4 = PulsePrimitive(
    "fall4", tuple(raised_cosine_edge(4.0, RATE, falling=True)), RATE, "edge"
)


def _program(instructions, initial_carrier=0.0, extra=()):
    return PulseProgram(
        instructions=tuple(instructions),
        primitives=_store(COS20, FLAT8, EDGE4, FALL4, *extra),
        initial_carrier=initial_carrier,
    )


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------


def test_primitive_validation():
    with pytest.raises(ValueError):
        PulsePrimitive("p", (), RATE)
    with pytest.raises(ValueError):
        PulsePrimitive("p", (1.5,), RATE)
    with pytest.raises(ValueError):
        PulsePrimitive("p", (0.5,), RATE, kind="step")


def test_program_rejects_unknown_reference():
    with pytest.raises(ValueError, match="ghost"):
        PulseProgram((PlayXY("ghost"),), {}, 0.0)
    with pytest.raises(ValueError, match="ghost"):
        PulseProgram(
            (Repeat(2, (PlayZ("edge4", 0.1, 8.0, "ghost"),)),),
            _store(EDGE4),
            0.0,
        )


def test_instruction_validation():
    with pytest.raises(ValueError):
        PlayXY("p", amplitude=1.5)
    with pytest.raises(ValueError):
        Repeat(0, ())
    with pytest.raises(ValueError, match="integer"):
        Repeat(True, ())
    with pytest.raises(ValueError):
        Delay(-1.0)
    with pytest.raises(ValueError):
        SetCarrier(-0.1)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_empty_program_compiles_to_zero_duration():
    compiled = pulsec.compile(_program(()), CONFIG)
    assert len(compiled) == 0
    assert compiled.final_frame.time_ns == 0.0


def test_virtual_z_rotates_envelope():
    base = pulsec.compile(_program((PlayXY("flat8"),)), CONFIG)
    rotated = pulsec.compile(
        _program((VirtualZ(math.pi / 2), PlayXY("flat8"))), CONFIG
    )
    np.testing.assert_allclose(
        rotated.xy_envelope.samples,
        np.exp(1j * math.pi / 2) * base.xy_envelope.samples,
        atol=1e-15,
    )


def test_virtual_z_equivalent_to_phase_offset():
    a = pulsec.compile(
        _program((VirtualZ(0.7), PlayXY("cos20", 0.5, 0.3))), CONFIG
    )
    b = pulsec.compile(_program((PlayXY("cos20", 0.5, 0.3 + 0.7),)), CONFIG)
    assert np.array_equal(a.xy_envelope.samples, b.xy_envelope.samples)


def test_carrier_phase_continuous_across_switch():
    program = _program(
        (PlayXY("flat8"), SetCarrier(0.31), PlayXY("flat8")), initial_carrier=0.208
    )
    compiled = pulsec.compile(program, CONFIG)
    theta = pulsec.carrier_phase(compiled)
    boundary = 8
    expected = 2.0 * math.pi * 0.208 * boundary / RATE
    assert theta[boundary] == pytest.approx(expected, abs=1e-12)
    # slope changes after the boundary, phase does not jump
    assert theta[boundary + 1] - theta[boundary] == pytest.approx(
        2.0 * math.pi * 0.31, abs=1e-12
    )


def test_z_hold_hosts_xy_body():
    program = _program(
        (
            PlayZ(
                "edge4",
                0.3,
                40.0,
                "fall4",
                body=(Delay(8.0), PlayXY("cos20", 0.5)),
            ),
        ),
        initial_carrier=0.208,
    )
    compiled = pulsec.compile(program, CONFIG)
    assert len(compiled) == 4 + 40 + 4
    z = compiled.z_baseband.samples
    np.testing.assert_allclose(z[4:44], 0.3)
    np.testing.assert_allclose(z[:4], 0.3 * np.asarray(EDGE4.samples))
    np.testing.assert_allclose(z[44:], 0.3 * np.asarray(FALL4.samples))
    env = compiled.xy_envelope.samples
    assert np.all(env[: 4 + 8] == 0)
    np.testing.assert_allclose(
        env[12:32], 0.5 * np.asarray(COS20.samples), atol=1e-15
    )
    assert np.all(env[32:] == 0)


def test_z_hold_body_too_long():
    program = _program(
        (PlayZ("edge4", 0.3, 8.0, "fall4", body=(PlayXY("cos20"),)),)
    )
    with pytest.raises(ScheduleError, match="hold"):
        pulsec.compile(program, CONFIG)


def test_nested_z_rejected():
    inner = PlayZ("edge4", 0.1, 8.0, "fall4")
    program = _program((PlayZ("edge4", 0.3, 40.0, "fall4", body=(inner,)),))
    with pytest.raises(ScheduleError, match="nested"):
        pulsec.compile(program, CONFIG)


def test_repeat_matches_manual_expansion():
    body = (VirtualZ(0.4), PlayXY("flat8", 0.6, 0.1), Delay(3.0))
    rep = pulsec.compile(_program((Repeat(3, body),)), CONFIG)
    manual = pulsec.compile(_program(body * 3), CONFIG)
    assert np.array_equal(rep.xy_envelope.samples, manual.xy_envelope.samples)
    assert np.array_equal(rep.z_baseband.samples, manual.z_baseband.samples)
    assert rep.final_frame == manual.final_frame


def test_kind_and_rate_enforcement():
    with pytest.raises(ValueError, match="kind"):
        pulsec.compile(_program((PlayXY("edge4"),)), CONFIG)
    with pytest.raises(ValueError, match="kind"):
        pulsec.compile(_program((PlayZ("cos20", 0.1, 8.0, "fall4"),)), CONFIG)
    slow = PulsePrimitive("slow", (0.1, 0.2), 0.5, "envelope")
    with pytest.raises(ValueError, match="GS/s"):
        pulsec.compile(_program((PlayXY("slow"),), extra=(slow,)), CONFIG)


def test_duration_checks():
    with pytest.raises(ScheduleError, match="integer"):
        pulsec.compile(_program((Delay(3.25),)), CONFIG)


def test_frame_phase_reported_modulo_2pi():
    compiled = pulsec.compile(_program((VirtualZ(7.0 * math.pi),)), CONFIG)
    assert 0.0 <= compiled.final_frame.frame_phase_rad < 2.0 * math.pi
    assert compiled.final_frame.frame_phase_rad == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_zero_program_synthesizes_empty():
    out = pulsec.synthesize(pulsec.compile(_program(()), CONFIG), CONFIG)
    assert len(out) == 0


def test_modulation_closed_form():
    program = _program(
        (PlayXY("flat8", 0.8, math.pi / 3),), initial_carrier=0.25
    )
    out = pulsec.synthesize(pulsec.compile(program, CONFIG), CONFIG)
    n = np.arange(8)
    theta = 2.0 * math.pi * 0.25 * n / RATE
    expected = 0.8 * 0.5 * np.cos(theta - math.pi / 3)
    np.testing.assert_allclose(out.samples, expected, atol=1e-12)


def _fig3_style_program(xy_amp=0.5, hold=0.3):
    return _program(
        (
            Delay(16.0),
            PlayZ(
                "edge4",
                hold,
                200.0,
                "fall4",
                body=(Delay(40.0), PlayXY("cos20", xy_amp)),
            ),
            Delay(16.0),
        ),
        initial_carrier=0.208,
    )


def test_composite_spectrum_has_dc_and_carrier_lobes():
    out = pulsec.synthesize(pulsec.compile(_fig3_style_program(), CONFIG), CONFIG)
    spectrum = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(len(out), 1.0 / RATE)
    band = (freqs > 0.1) & (freqs < 0.35)
    carrier_peak = freqs[band][np.argmax(spectrum[band])]
    assert carrier_peak == pytest.approx(0.208, abs=0.05)
    low = spectrum[freqs < 0.05]
    assert np.max(low) > np.max(spectrum[band])  # dc lobe from the Z step


def test_amplitude_linearity_unfiltered():
    c = 0.37
    base = pulsec.synthesize(
        pulsec.compile(_fig3_style_program(0.5, 0.3), CONFIG), CONFIG
    )
    scaled = pulsec.synthesize(
        pulsec.compile(_fig3_style_program(0.5 * c, 0.3 * c), CONFIG), CONFIG
    )
    np.testing.assert_allclose(scaled.samples, c * base.samples, atol=1e-12)


def test_saturation_raises_with_location():
    program = _fig3_style_program(xy_amp=0.9, hold=0.6)
    with pytest.raises(SaturationError) as info:
        pulsec.synthesize(pulsec.compile(program, CONFIG), CONFIG)
    assert info.value.peak > 1.0
    assert 60 <= info.value.index <= 80  # inside the burst riding the hold


def test_fir_applied_after_modulation():
    fir = filters.synthesize_fir(
        filters.bounded_inverse(filters.gaussian_lowpass(0.092), 0.208), 16, RATE
    )
    config = SynthesisConfig(sample_rate=RATE, xy_fir=fir)
    program = _program((PlayXY("cos20", 0.4),), initial_carrier=0.208)
    compiled = pulsec.compile(program, CONFIG)
    out = pulsec.synthesize(compiled, config)
    # the contract: FIR filters the real modulated signal
    theta = pulsec.carrier_phase(compiled)
    modulated = np.real(compiled.xy_envelope.samples * np.exp(-1j * theta))
    from scipy.signal import lfilter

    np.testing.assert_allclose(
        out.samples, lfilter(fir.taps_float, [1.0], modulated), atol=1e-12
    )
    # filtering the envelope before modulation is a different (wrong) pipeline
    pre_mod = np.real(
        lfilter(fir.taps_float, [1.0], compiled.xy_envelope.samples)
        * np.exp(-1j * theta)
    )
    assert np.max(np.abs(pre_mod - out.samples)) > 1e-3


def test_iir_applied_to_z_path():
    corrector = filters.design_iir_corrector([(-0.05, 100.0)], RATE)
    config = SynthesisConfig(sample_rate=RATE, z_iir=corrector)
    compiled = pulsec.compile(_fig3_style_program(), CONFIG)
    out = pulsec.synthesize(compiled, config)
    theta = pulsec.carrier_phase(compiled)
    xy = np.real(compiled.xy_envelope.samples * np.exp(-1j * theta))
    z = filters.apply_iir(compiled.z_baseband, corrector)
    np.testing.assert_allclose(out.samples, xy + z.samples, atol=1e-12)


def test_config_filter_rate_mismatch():
    fir = filters.synthesize_fir(filters.FlatResponse(), 16, 2.0)
    with pytest.raises(ValueError):
        SynthesisConfig(sample_rate=RATE, xy_fir=fir)


def test_synthesis_deterministic():
    fir = filters.synthesize_fir(
        filters.bounded_inverse(filters.gaussian_lowpass(0.092), 0.208), 16, RATE
    )
    iir = filters.design_iir_corrector([(-0.0174, 34.0)], RATE)
    config = SynthesisConfig(sample_rate=RATE, xy_fir=fir, z_iir=iir)
    outs = [
        pulsec.synthesize(pulsec.compile(_fig3_style_program(), config), config)
        for _ in range(2)
    ]
    assert outs[0].samples.tobytes() == outs[1].samples.tobytes()


# ---------------------------------------------------------------------------
# DAC quantization
# ---------------------------------------------------------------------------


def test_dac_quantize_substitution():
    w = pulsec.Waveform([1.0, 0.0, -1.0, 0.25], RATE)
    codes = pulsec.dac_quantize(w, CONFIG)
    assert codes.tolist() == [32767, 0, -32767, 8192]


def test_dac_quantize_eight_bits():
    config = SynthesisConfig(sample_rate=RATE, dac_bits=8)
    codes = pulsec.dac_quantize(pulsec.Waveform([1.0, -0.5], RATE), config)
    assert codes.tolist() == [127, -64]


def test_dac_quantize_out_of_range():
    with pytest.raises(SaturationError):
        pulsec.dac_quantize(pulsec.Waveform([1.0001], RATE), CONFIG)


def test_dac_round_trip_fixed_point():
    out = pulsec.synthesize(pulsec.compile(_fig3_style_program(), CONFIG), CONFIG)
    codes = pulsec.dac_quantize(out, CONFIG)
    replay = dac_dequantize(codes, CONFIG, RATE)
    again = pulsec.dac_quantize(replay, CONFIG)
    assert np.array_equal(codes, again)


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


def test_memory_report_replay_example():
    p20 = PulsePrimitive("p20", (0.5,) * 20, RATE, "envelope")
    program = PulseProgram(
        (Repeat(100, (PlayXY("p20"), Delay(480.0))),), _store(p20), 0.208
    )
    report = pulsec.memory_report(program, pulsec.compile(program, CONFIG))
    assert report["stored_ns"] == 20.0
    assert report["sequence_ns"] == 50_000.0
    assert report["ratio"] == 2500.0


def test_memory_report_empty_program():
    program = PulseProgram((), {}, 0.0)
    report = pulsec.memory_report(program, pulsec.compile(program, CONFIG))
    assert report == {"stored_ns": 0.0, "sequence_ns": 0.0, "ratio": None}


def test_memory_report_matches_compiled_duration():
    # 2 + 7 samples at 2.4 GS/s: summing the two float durations gives
    # 3.7500000000000004 ns, the compiled timeline 9 / 2.4 = 3.75 ns
    two = PulsePrimitive("two", (0.5,) * 2, 2.4, "envelope")
    seven = PulsePrimitive("seven", (0.5,) * 7, 2.4, "envelope")
    cases = [
        (_fig3_style_program(), CONFIG),
        (
            PulseProgram((PlayXY("two"), PlayXY("seven")), _store(two, seven), 0.2),
            SynthesisConfig(sample_rate=2.4),
        ),
    ]
    for program, config in cases:
        compiled = pulsec.compile(program, config)
        report = pulsec.memory_report(program, compiled)
        assert report["sequence_ns"] == compiled.xy_envelope.duration_ns
        assert report["sequence_ns"] == len(compiled) / config.sample_rate


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_parse_empty_text():
    program = pulsec.parse_program("", RATE)
    assert program.instructions == ()
    assert program.primitives == {}


def test_parse_basic_program():
    text = """
# composite example
prim burst envelope 0.0 0.5 1.0 0.5
prim edge edge 0.0 0.5 1.0
carrier 0.208
xy burst amp=0.5 phase=0.0
vz 1.5707963267948966
z rise=edge hold=0.3,8.0 fall=edge {
  delay 2.0
  xy burst amp=0.25 phase=0.1
}
delay 4.0
repeat 2 {
  xy burst amp=0.1 phase=0.0
}
"""
    program = pulsec.parse_program(text, RATE)
    assert program.initial_carrier == 0.208
    assert len(program.primitives) == 2
    kinds = [type(i).__name__ for i in program.instructions]
    assert kinds == ["PlayXY", "VirtualZ", "PlayZ", "Delay", "Repeat"]
    z = program.instructions[2]
    assert z.hold_amplitude == 0.3
    assert [type(i).__name__ for i in z.body] == ["Delay", "PlayXY"]
    pulsec.compile(program, CONFIG)  # also schedulable


def test_parse_errors_carry_location():
    with pytest.raises(ProgramParseError) as info:
        pulsec.parse_program("bogus 1 2\n", RATE)
    assert info.value.line == 1 and info.value.column == 1
    with pytest.raises(ProgramParseError, match="unknown primitive 'nope'"):
        pulsec.parse_program("xy nope\n", RATE)
    with pytest.raises(ProgramParseError) as info:
        pulsec.parse_program("prim a envelope 0.1\nvz oops\n", RATE)
    assert info.value.line == 2 and info.value.column == 4
    with pytest.raises(ProgramParseError, match="duplicate"):
        pulsec.parse_program("prim a envelope 0.1\nprim a envelope 0.2\n", RATE)
    with pytest.raises(ProgramParseError, match="unmatched"):
        pulsec.parse_program("}\n", RATE)
    with pytest.raises(ProgramParseError, match="unterminated"):
        pulsec.parse_program("repeat 2 {\nvz 0.1\n", RATE)
    with pytest.raises(ProgramParseError, match="integer"):
        pulsec.parse_program("delay 0.3\n", RATE)


def test_parse_applies_the_compiler_sample_rule():
    # the parser reports the compiler's own ScheduleError text, with a location
    with pytest.raises(ScheduleError) as compiled:
        pulsec.compile(_program((Delay(0.3),)), CONFIG)
    with pytest.raises(ProgramParseError) as parsed:
        pulsec.parse_program("delay 0.3\n", RATE)
    assert str(parsed.value) == f"{compiled.value} (line 1, column 7)"
    for text in ("delay inf\n", "delay nan\n", "prim e edge 0 1\nz rise=e hold=0.1,inf fall=e\n"):
        with pytest.raises(ProgramParseError, match="integer"):
            pulsec.parse_program(text, RATE)


def test_parse_primitive_from_file(tmp_path):
    (tmp_path / "env.txt").write_text("0.0 0.5\n1.0 0.5\n")
    program = pulsec.parse_program(
        "prim fromfile file env.txt\nxy fromfile amp=1.0 phase=0.0\n",
        RATE,
        base_dir=tmp_path,
    )
    assert program.primitives["fromfile"].samples == (0.0, 0.5, 1.0, 0.5)


def test_serialize_round_trip_explicit():
    program = _fig3_style_program()
    text = serialize_program(program)
    assert pulsec.parse_program(text, RATE) == program


# property: structural round trip over randomly generated programs

_amps = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_phases = st.floats(allow_nan=False, allow_infinity=False)
_freqs = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_durations = st.integers(min_value=0, max_value=12).map(float)


@st.composite
def _programs(draw):
    env_ids = [f"env{i}" for i in range(draw(st.integers(1, 2)))]
    edge_ids = [f"edge{i}" for i in range(draw(st.integers(1, 2)))]
    prims = {}
    for pid, kind in [(p, "envelope") for p in env_ids] + [
        (p, "edge") for p in edge_ids
    ]:
        samples = tuple(draw(st.lists(_amps, min_size=1, max_size=4)))
        prims[pid] = PulsePrimitive(pid, samples, RATE, kind)
    leaf = st.one_of(
        st.builds(
            PlayXY,
            primitive_id=st.sampled_from(env_ids),
            amplitude=_amps,
            phase_offset=_phases,
        ),
        st.builds(VirtualZ, phase=_phases),
        st.builds(SetCarrier, frequency=_freqs),
        st.builds(Delay, duration=_durations),
    )

    def compound(inner):
        return st.one_of(
            st.builds(
                PlayZ,
                rise_primitive_id=st.sampled_from(edge_ids),
                hold_amplitude=_amps,
                hold_duration=_durations,
                fall_primitive_id=st.sampled_from(edge_ids),
                body=st.lists(inner, max_size=2).map(tuple),
            ),
            st.builds(
                Repeat,
                count=st.integers(1, 3),
                body=st.lists(inner, max_size=2).map(tuple),
            ),
        )

    # bodies nest: a Repeat may hold a PlayZ whose hold holds a Repeat, ...
    instruction = st.recursive(leaf, compound, max_leaves=6)
    instructions = tuple(draw(st.lists(instruction, max_size=5)))
    return PulseProgram(instructions, prims, draw(_freqs))


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_serialize_round_trip_property(program):
    assert pulsec.parse_program(serialize_program(program), RATE) == program


# compile against the unrolled oracle: same bytes, same frame, same errors


def _assert_compiles_like_oracle(program, config=CONFIG):
    try:
        want = unrolled_compile(program, config)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            pulsec.compile(program, config)
        if (type(exc), str(exc)) == (ValueError, "math domain error"):
            # The one documented difference: where the oracle's math.cos meets
            # a frame phase that overflowed to inf, compile names the play.
            assert type(info.value) is ScheduleError
            assert "not finite" in str(info.value)
            return
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    got = pulsec.compile(program, config)
    assert got.xy_envelope.samples.tobytes() == want.xy_envelope.samples.tobytes()
    assert got.z_baseband.samples.tobytes() == want.z_baseband.samples.tobytes()
    # repr tells -0.0 from 0.0 and compares NaN carrier phases
    assert repr(got.frame_segments) == repr(want.frame_segments)
    assert repr(got.final_frame) == repr(want.final_frame)


# one play of a one-sample primitive: the product underflows to a signed zero
_SIGNED_ZERO = PulseProgram(
    (PlayXY("tiny", 1.1125369292536007e-308, 167.0),),
    {"tiny": PulsePrimitive("tiny", (4.500652544745515e-227,), RATE)},
)


@settings(max_examples=300, deadline=None)
@given(_programs())
@example(_SIGNED_ZERO)
def test_compile_matches_unrolled_oracle_property(program):
    _assert_compiles_like_oracle(program)


def test_compile_matches_oracle_on_long_two_level_repeat():
    rng = np.random.default_rng(2026)
    phase = lambda: float(rng.uniform(-math.pi, math.pi))  # noqa: E731
    body = (
        VirtualZ(phase()),
        PlayXY("cos20", 0.5, phase()),
        Repeat(3, (PlayXY("flat8", -0.3, phase()), VirtualZ(phase()), Delay(2.0))),
        PlayZ("edge4", 0.2, 12.0, "fall4", body=(VirtualZ(phase()), PlayXY("flat8", 0.25))),
        SetCarrier(0.2),
    )
    program = _program((Repeat(2000, body), PlayXY("cos20", 0.1)), initial_carrier=0.21)
    _assert_compiles_like_oracle(program)
    assert len(pulsec.compile(program, CONFIG)) == 2000 * (20 + 3 * 10 + 20) + 20


def test_compile_matches_oracle_on_rb_sequence():
    rng = np.random.default_rng(11)
    indices = [int(i) for i in rng.integers(0, dynamics.CLIFFORD_COUNT, 320)]
    indices.append(dynamics.recovery_index(indices))
    gate = dynamics.RbGate(duration_ns=20.0, amplitude_dac=0.01)
    program = dynamics.build_rb_program(indices, gate, 2.0, 0.21)
    _assert_compiles_like_oracle(program, SynthesisConfig(sample_rate=2.0))


def test_compile_raises_the_first_fault_in_program_order():
    # The frame phase overflows to inf before the nested Z: played in order,
    # the play in between fails first.
    nested = PlayZ("edge4", 0.3, 40.0, "fall4", body=(PlayZ("edge4", 0.1, 8.0, "fall4"),))
    overflow = (VirtualZ(1e308), VirtualZ(1e308), PlayXY("flat8"))
    _assert_compiles_like_oracle(_program(overflow + (nested,)))
    with pytest.raises(ScheduleError) as info:
        pulsec.compile(_program(overflow + (nested,)), CONFIG)
    assert str(info.value) == (
        "xy play 0 in program order: frame phase plus phase offset is not finite"
    )
    with pytest.raises(ScheduleError, match="nested"):
        pulsec.compile(_program((nested,) + overflow), CONFIG)


# property: every numeric field of every instruction rejects NaN and +-inf

_VALID_FIELDS = {
    PlayXY: dict(primitive_id="flat8", amplitude=0.5, phase_offset=0.1),
    PlayZ: dict(
        rise_primitive_id="edge4",
        hold_amplitude=0.3,
        hold_duration=4.0,
        fall_primitive_id="fall4",
    ),
    VirtualZ: dict(phase=0.4),
    SetCarrier: dict(frequency=0.2),
    Delay: dict(duration=3.0),
    Repeat: dict(count=2, body=()),
}
_NUMERIC_FIELDS = [
    (cls, f.name)
    for cls in _VALID_FIELDS
    for f in dataclasses.fields(cls)
    if f.type in ("float", "float | None", "int")
]


def test_numeric_field_list_covers_every_instruction():
    assert {cls for cls, _ in _NUMERIC_FIELDS} == set(_VALID_FIELDS)
    assert len(_NUMERIC_FIELDS) == 8
    for cls, fields in _VALID_FIELDS.items():
        cls(**fields)  # the baseline values are valid


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_NUMERIC_FIELDS),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_every_instruction_rejects_non_finite_fields(case, bad):
    cls, name = case
    with pytest.raises(ValueError):
        cls(**{**_VALID_FIELDS[cls], name: bad})


@pytest.mark.parametrize(
    "fields, match",
    [
        (dict(dac_full_scale=math.nan), "full_scale"),
        (dict(dac_full_scale=math.inf), "full_scale"),
        (dict(dac_full_scale=0.0), "full_scale"),
        (dict(dac_full_scale=-1.0), "full_scale"),
        (dict(dac_bits=12.5), "dac_bits"),
    ],
)
def test_synthesis_config_rejects_bad_dac(fields, match):
    with pytest.raises(ValueError, match=match):
        SynthesisConfig(sample_rate=2.0, **fields)


def test_program_rejects_non_finite_carrier_and_samples():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="carrier"):
            _program((), initial_carrier=bad)
    with pytest.raises(ValueError, match="outside"):
        PulsePrimitive("p", (0.5, math.nan), RATE)
    with pytest.raises(ValueError, match="finite"):
        PulsePrimitive("p", (0.5,), math.inf)
    with pytest.raises(ValueError, match="finite"):
        SynthesisConfig(sample_rate=math.inf)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("vz nan\n", 1, 4),
        ("carrier inf\n", 1, 9),
        ("vz 0.1\ncarrier nan\n", 2, 9),
        ("prim p envelope 0.1 0.2\nxy p amp=nan\n", 2, 1),
        ("prim p envelope 0.1 0.2\nxy p phase=inf\n", 2, 1),
        ("prim e edge 0 1\nz rise=e hold=nan,2 fall=e\n", 2, 1),
        ("prim p envelope 0.1 nan\n", 1, 17),
    ],
)
def test_parse_rejects_non_finite_values_with_location(text, line, column):
    with pytest.raises(ProgramParseError) as info:
        pulsec.parse_program(text, RATE)
    assert (info.value.line, info.value.column) == (line, column)


# ---------------------------------------------------------------------------
# binary IO
# ---------------------------------------------------------------------------


def test_waveform_binary_round_trip(tmp_path):
    out = pulsec.synthesize(pulsec.compile(_fig3_style_program(), CONFIG), CONFIG)
    codes = pulsec.dac_quantize(out, CONFIG)
    path = tmp_path / "composite.bin"
    meta = pulsec.dump_waveform_binary(path, codes, RATE)
    assert meta["length"] == len(codes)
    assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded, loaded_meta = load_waveform_binary(path)
    assert np.array_equal(loaded, codes)
    assert loaded_meta == meta


def test_waveform_binary_detects_corruption(tmp_path):
    path = tmp_path / "w.bin"
    pulsec.dump_waveform_binary(path, np.array([1, -2, 3]), RATE)
    payload = bytearray(path.read_bytes())
    payload[0] ^= 0xFF
    path.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="checksum"):
        load_waveform_binary(path)


def test_waveform_binary_range_check(tmp_path):
    with pytest.raises(ValueError, match="range"):
        pulsec.dump_waveform_binary(tmp_path / "w.bin", np.array([40000]), RATE)
