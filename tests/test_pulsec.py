import dataclasses
import hashlib
import math
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    carrier_phase,
    dac_dequantize,
    load_waveform_binary,
    raised_cosine_edge,
    sectionwise_iir,
    serialize_program,
    timeline_synthesize,
    unrolled_compile,
    unrolled_indices,
    whole_array_payload,
    whole_array_synthesize,
    xy_timeline,
    z_timeline,
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


def _program(instructions, carrier=None, extra=()):
    """The instructions over the test store, after ``SetCarrier(carrier)`` if given."""
    head = () if carrier is None else (SetCarrier(carrier),)
    return PulseProgram(
        instructions=head + tuple(instructions),
        primitives=_store(COS20, FLAT8, EDGE4, FALL4, *extra),
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
        PulseProgram((PlayXY("ghost"),), {})
    with pytest.raises(ValueError, match="ghost"):
        PulseProgram(
            (Repeat(2, (PlayZ("edge4", 0.1, 8.0, "ghost"),)),),
            _store(EDGE4),
        )


def test_program_refuses_a_store_key_that_is_not_the_primitive_id():
    with pytest.raises(ValueError) as info:
        PulseProgram((PlayXY("x90"),), {"x90": COS20})
    assert str(info.value) == "store key 'x90' does not match primitive id 'cos20'"


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


def test_virtual_z_rotates_envelope():
    base = pulsec.compile(_program((PlayXY("flat8"),)), CONFIG)
    rotated = pulsec.compile(
        _program((VirtualZ(math.pi / 2), PlayXY("flat8"))), CONFIG
    )
    np.testing.assert_allclose(
        xy_timeline(rotated),
        np.exp(1j * math.pi / 2) * xy_timeline(base),
        atol=1e-15,
    )


def test_virtual_z_equivalent_to_phase_offset():
    a = pulsec.compile(
        _program((VirtualZ(0.7), PlayXY("cos20", 0.5, 0.3))), CONFIG
    )
    b = pulsec.compile(_program((PlayXY("cos20", 0.5, 0.3 + 0.7),)), CONFIG)
    assert xy_timeline(a).tobytes() == xy_timeline(b).tobytes()


def test_carrier_phase_continuous_across_switch():
    program = _program(
        (PlayXY("flat8"), SetCarrier(0.31), PlayXY("flat8")), carrier=0.208
    )
    compiled = pulsec.compile(program, CONFIG)
    theta = carrier_phase(compiled)
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
        carrier=0.208,
    )
    compiled = pulsec.compile(program, CONFIG)
    assert len(compiled) == 4 + 40 + 4
    z = z_timeline(compiled).samples
    np.testing.assert_allclose(z[4:44], 0.3)
    np.testing.assert_allclose(z[:4], 0.3 * np.asarray(EDGE4.samples))
    np.testing.assert_allclose(z[44:], 0.3 * np.asarray(FALL4.samples))
    env = xy_timeline(compiled)
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
    assert xy_timeline(rep).tobytes() == xy_timeline(manual).tobytes()
    assert np.array_equal(z_timeline(rep).samples, z_timeline(manual).samples)
    assert rep.frame_segments == manual.frame_segments


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


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


# with an IIR config, an empty Z baseband passes the corrector as it is
CONFIG_IIR = SynthesisConfig(
    sample_rate=RATE, z_iir=filters.design_iir_corrector([(-0.0174, 34.0)], RATE)
)


def test_zero_program_synthesizes_empty():
    for config in (CONFIG, CONFIG_IIR):
        out = pulsec.synthesize(pulsec.compile(_program(()), config), config)
        assert len(out) == 0


def test_modulation_closed_form():
    program = _program(
        (PlayXY("flat8", 0.8, math.pi / 3),), carrier=0.25
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
        carrier=0.208,
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
    program = _program((PlayXY("cos20", 0.4),), carrier=0.208)
    compiled = pulsec.compile(program, CONFIG)
    out = pulsec.synthesize(compiled, config)
    # the contract: FIR filters the real modulated signal
    theta = carrier_phase(compiled)
    modulated = np.real(xy_timeline(compiled) * np.exp(-1j * theta))
    from scipy.signal import lfilter

    np.testing.assert_allclose(
        out.samples, lfilter(fir.taps_float, [1.0], modulated), atol=1e-12
    )
    # filtering the envelope before modulation is a different (wrong) pipeline
    pre_mod = np.real(
        lfilter(fir.taps_float, [1.0], xy_timeline(compiled))
        * np.exp(-1j * theta)
    )
    assert np.max(np.abs(pre_mod - out.samples)) > 1e-3


def test_iir_applied_to_z_path():
    corrector = filters.design_iir_corrector([(-0.05, 100.0)], RATE)
    config = SynthesisConfig(sample_rate=RATE, z_iir=corrector)
    compiled = pulsec.compile(_fig3_style_program(), CONFIG)
    out = pulsec.synthesize(compiled, config)
    theta = carrier_phase(compiled)
    xy = np.real(xy_timeline(compiled) * np.exp(-1j * theta))
    z = filters.apply_iir(z_timeline(compiled), corrector)
    np.testing.assert_allclose(out.samples, xy + z.samples, atol=1e-12)


def test_config_filter_rate_mismatch():
    fir = filters.synthesize_fir(filters.FlatResponse(), 16, 2.0)
    with pytest.raises(ValueError):
        SynthesisConfig(sample_rate=RATE, xy_fir=fir)


@pytest.mark.parametrize("build, message", [
    (lambda: SynthesisConfig(sample_rate=RATE, z_iir=filters.design_iir_corrector(
        [(-0.0174, 34.0)], 2.0 * RATE)), "z_iir sample rate does not match the engine rate"),
    (lambda: pulsec.synthesize(pulsec.compile(_program((PlayXY("cos20"),)), CONFIG),
                               SynthesisConfig(sample_rate=2.0 * RATE)),
     "config sample rate does not match the compiled program"),
    (lambda: pulsec.cosine_envelope(1.0, RATE), "envelope needs at least 2 samples"),
], ids=["z-iir-rate", "synthesize-rate", "one-sample-envelope"])
def test_synthesis_refuses_a_rate_or_length_it_cannot_play(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_compile_refuses_an_unknown_instruction_object():
    with pytest.raises(TypeError) as info:
        pulsec.compile(_program((Delay(2.0), object())), CONFIG)
    assert str(info.value) == "unknown instruction object"


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


def test_dac_quantize_takes_the_rounding_of_full_scale_to_the_top_code():
    just_over = 1.0 + 2.0**-52
    for bits in (8, 16):
        config = SynthesisConfig(sample_rate=RATE, dac_bits=bits)
        codes = pulsec.dac_quantize(pulsec.Waveform([just_over, -just_over], RATE), config)
        assert codes.tolist() == [2 ** (bits - 1) - 1, 1 - 2 ** (bits - 1)]
    with pytest.raises(SaturationError, match=re.escape(f"peak {1 + 1e-9!r} at sample 1 exceeds")):
        pulsec.dac_quantize(pulsec.Waveform([0.5, 1 + 1e-9], RATE), CONFIG)


@pytest.mark.parametrize(
    "carrier, phase, synthesize",
    [
        ("1.8150000000000002", "5.701990666265475", timeline_synthesize),
        ("2.9884235703558835", "3.1052242272650368", pulsec.synthesize),
    ],
)
def test_full_scale_play_synthesizes_and_quantizes(carrier, phase, synthesize):
    # the rotor and the carrier round this play's peak to 1.0000000000000002
    program = pulsec.parse_program(
        f"prim p envelope 0.0 1.0 0.0\ncarrier {carrier}\nxy p amp=1.0 phase={phase}\n", 2.0
    )
    config = SynthesisConfig(sample_rate=2.0)
    wave = synthesize(pulsec.compile(program, config), config)
    assert np.max(np.abs(wave.samples)) == 1.0 + 2.0**-52
    assert np.max(np.abs(pulsec.dac_quantize(wave, config))) == 32767


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
        (SetCarrier(0.208), Repeat(100, (PlayXY("p20"), Delay(480.0)))), _store(p20)
    )
    report = pulsec.memory_report(pulsec.compile(program, CONFIG))
    assert report["stored_ns"] == 20.0
    assert report["sequence_ns"] == 50_000.0
    assert report["ratio"] == 2500.0


def test_memory_report_empty_program():
    program = PulseProgram((), {})
    report = pulsec.memory_report(pulsec.compile(program, CONFIG))
    assert report == {"stored_ns": 0.0, "sequence_ns": 0.0, "ratio": None}


def test_memory_report_matches_compiled_duration():
    # 2 + 7 samples at 2.4 GS/s: summing the two float durations gives
    # 3.7500000000000004 ns, the compiled timeline 9 / 2.4 = 3.75 ns
    two = PulsePrimitive("two", (0.5,) * 2, 2.4, "envelope")
    seven = PulsePrimitive("seven", (0.5,) * 7, 2.4, "envelope")
    cases = [
        (_fig3_style_program(), CONFIG),
        (
            PulseProgram((SetCarrier(0.2), PlayXY("two"), PlayXY("seven")), _store(two, seven)),
            SynthesisConfig(sample_rate=2.4),
        ),
    ]
    for program, config in cases:
        compiled = pulsec.compile(program, config)
        report = pulsec.memory_report(compiled)
        assert report["sequence_ns"] == pulsec.synthesize(compiled, config).duration_ns
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
    assert program.instructions[0] == SetCarrier(0.208)
    assert len(program.primitives) == 2
    kinds = [type(i).__name__ for i in program.instructions]
    assert kinds == ["SetCarrier", "PlayXY", "VirtualZ", "PlayZ", "Delay", "Repeat"]
    z = program.instructions[3]
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
def _programs(draw, rates=st.just(RATE), phases=_phases):
    rate = draw(rates)
    env_ids = [f"env{i}" for i in range(draw(st.integers(1, 2)))]
    edge_ids = [f"edge{i}" for i in range(draw(st.integers(1, 2)))]
    prims = {}
    for pid, kind in [(p, "envelope") for p in env_ids] + [
        (p, "edge") for p in edge_ids
    ]:
        samples = tuple(draw(st.lists(_amps, min_size=1, max_size=4)))
        prims[pid] = PulsePrimitive(pid, samples, rate, kind)
    leaf = st.one_of(
        st.builds(
            PlayXY,
            primitive_id=st.sampled_from(env_ids),
            amplitude=_amps,
            phase_offset=phases,
        ),
        st.builds(VirtualZ, phase=phases),
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
    return PulseProgram((SetCarrier(draw(_freqs)), *instructions), prims)


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
    assert xy_timeline(got).tobytes() == want.xy_envelope.tobytes()
    assert z_timeline(got).samples.tobytes() == want.z_baseband.samples.tobytes()
    # repr tells -0.0 from 0.0 and compares NaN carrier phases
    assert repr(got.frame_segments) == repr(want.frame_segments)


# one play of a one-sample primitive: the product underflows to a signed zero
_SIGNED_ZERO = PulseProgram(
    (PlayXY("tiny", 1.1125369292536007e-308, 167.0),),
    {"tiny": PulsePrimitive("tiny", (4.500652544745515e-227,), RATE)},
)


# a*sin(phase) underflows to -0.0; added to 0*cos in one fused multiply-add
# the imaginary part of the scale would stay -0.0 instead of 0.0
_FUSED_SIGNED_ZERO = PulseProgram(
    (PlayXY("zero", -3.506424101618955e-286, 1.274314262014313e-232),),
    {"zero": PulsePrimitive("zero", (0.0,), RATE)},
)


@settings(max_examples=300, deadline=None)
@given(_programs())
@example(_SIGNED_ZERO)
@example(_FUSED_SIGNED_ZERO)
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
    program = _program((Repeat(2000, body), PlayXY("cos20", 0.1)), carrier=0.21)
    _assert_compiles_like_oracle(program)
    assert len(pulsec.compile(program, CONFIG)) == 2000 * (20 + 3 * 10 + 20) + 20


def test_compile_matches_oracle_on_rb_sequence():
    rng = np.random.default_rng(11)
    indices = [int(i) for i in rng.integers(0, dynamics.CLIFFORD_COUNT, 320)]
    indices.append(dynamics.recovery_index(indices))
    gate = dynamics.RbGate(duration_ns=20.0, amplitude_dac=0.01)
    program = dynamics.build_rb_program(indices, gate, 2.0, 0.21)
    _assert_compiles_like_oracle(program, SynthesisConfig(sample_rate=2.0))


def test_example_keeps_exact_sample_indices_past_2_to_the_53():
    # at 1e16 GS/s the example's 24 ns of delays and holds take 2.4e17
    # samples, past 2^53, where a float start would round
    text = (pathlib.Path(__file__).parent / "data" / "example_program.pulse").read_text()
    program = pulsec.parse_program(text, 1e16)
    compiled = pulsec.compile(program, SynthesisConfig(sample_rate=1e16))
    want = unrolled_indices(program, 1e16)
    assert compiled.xy_starts.tolist() == want["xy_starts"] == [
        0, 8, 120000000000000021, 240000000000000026, 240000000000000034, 240000000000000042]
    assert compiled.n_samples == want["n_samples"] == 240000000000000050
    assert compiled.z_edges["start"].tolist() == want["edge_starts"] == [
        80000000000000016, 240000000000000021]
    assert compiled.z_holds[["start", "samples"]].tolist() == want["holds"] == [
        (80000000000000021, 160000000000000000)]


@settings(max_examples=200, deadline=None)
@given(_programs(st.sampled_from([1.0, 2.0, 7.3e15, 1e16]), st.floats(-4.0, 4.0)))
def test_compile_keeps_integer_sample_indices_property(program):
    rate = next(iter(program.primitives.values())).sample_rate
    config = SynthesisConfig(sample_rate=rate)
    try:
        want = unrolled_indices(program, rate)
    except ScheduleError as exc:
        with pytest.raises(ScheduleError, match=re.escape(str(exc))):
            pulsec.compile(program, config)
        return
    if want["n_samples"] > np.iinfo(np.int64).max:
        with pytest.raises(OverflowError, match="overflow an int64 sample index"):
            pulsec.compile(program, config)
        return
    got = pulsec.compile(program, config)
    assert got.xy_starts.tolist() == want["xy_starts"]
    assert got.z_edges["start"].tolist() == want["edge_starts"]
    assert got.z_holds[["start", "samples"]].tolist() == want["holds"]
    assert [s.start_index for s in got.frame_segments] == sorted({0, *want["carrier_starts"]})
    assert got.n_samples == want["n_samples"]
    # XY plays start strictly later each and never overlap; Z edges and
    # holds never overlap; every record ends by n_samples
    length = [len(p) for p in got.primitives]
    xy = [(s, s + length[i]) for s, i in zip(got.xy_starts.tolist(), got.xy_primitives.tolist())]
    z = sorted([(s, s + length[i]) for s, i, _ in got.z_edges.tolist()]
               + [(s, s + n) for s, n, _ in got.z_holds.tolist()])
    assert all(a < b for (a, _), (b, _) in zip(xy, xy[1:]))
    for records in xy, z:
        assert all(end <= start for (_, end), (start, _) in zip(records, records[1:]))
        assert all(end <= got.n_samples for _, end in records)


def test_repeat_of_a_body_without_records_tiles_nothing():
    # 10^12 repeats of a delay: no record to tile, so no per-repeat array
    # (7.3 TiB of int64 shifts) is allocated
    program = pulsec.parse_program("repeat 1000000000000 {\n  delay 1\n}\n", RATE)
    compiled = pulsec.compile(program, CONFIG)
    assert compiled.n_samples == 1_000_000_000_000
    assert len(compiled.xy_starts) == len(compiled.z_edges) == len(compiled.z_holds) == 0


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
    # past int64 samples too, where the records are never built
    with pytest.raises(ScheduleError, match="xy play 0 in program order"):
        pulsec.compile(_program((Delay(1e19),) + overflow + (nested,)), CONFIG)


# synthesize against the sample-by-sample oracle: within the oracle's own
# rounding of the carrier phase, and the same errors

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
_FIR = filters.synthesize_fir(
    filters.bounded_inverse(filters.gaussian_lowpass(0.092), 0.208), 16, RATE
)
_IIR = filters.design_iir_corrector([(-0.0174, 34.0)], RATE)
_CONFIGS = [CONFIG, SynthesisConfig(RATE, xy_fir=_FIR), SynthesisConfig(RATE, xy_fir=_FIR, z_iir=_IIR)]


def _tolerance(compiled, config):
    """8 eps (1 + max|theta|) A G: theta the carrier phase over the program,
    A the largest |scale * sample| of a play, G the FIR's sum of |taps| (1
    without a FIR). The oracle rounds theta[n] itself, to eps |theta| each.

    A is floored at the smallest normal double, TINY. Below it rounding is
    absolute: one step is eps * TINY = 2^-1074, whatever the value. The oracle
    rounds a * sample before the FIR and the renderer after it, so where every
    play is subnormal the two may differ by such steps while a relative bound
    reads 0. The floor makes the bound at least 8 of them.
    """
    theta = np.max(np.abs(carrier_phase(compiled)), initial=0.0)
    a = max(np.max(np.abs(xy_timeline(compiled)), initial=0.0), TINY)
    g = 1.0 if config.xy_fir is None else np.sum(np.abs(config.xy_fir.taps_float))
    return 8.0 * EPS * (1.0 + theta) * a * g


def _played(compiled):
    mask = np.zeros(len(compiled), dtype=bool)
    for start, index in zip(compiled.xy_starts, compiled.xy_primitives):
        mask[start : start + len(compiled.primitives[index])] = True
    return mask


def _assert_synthesizes_like_oracle(compiled, config):
    """Returns (new, oracle) composites, or None where one of them raises.

    Two documented differences: where the carrier phase is not finite, a play
    raises ``ScheduleError`` (the oracle's samples are not finite) and a span
    with no play is zeros; and a saturation verdict may differ only for a
    peak within the tolerance of full scale.
    """
    try:
        with np.errstate(all="ignore"):  # the oracle's carrier phase may overflow
            want = timeline_synthesize(compiled, config)
    except Exception as exc:
        try:
            pulsec.synthesize(compiled, config)
        except Exception as mine:
            if str(exc) == "samples must be finite":
                with np.errstate(all="ignore"):
                    finite = np.isfinite(carrier_phase(compiled))
                if (_played(compiled) & ~finite).any():
                    assert type(mine) is ScheduleError
                    assert "carrier phase is not finite" in str(mine)
                    return None
                assert not finite.all()
                assert type(mine) is SaturationError
                return None
            assert type(mine) is type(exc)
            return None
        if type(exc) is SaturationError:
            assert exc.peak <= pulsec.FULL_SCALE + _tolerance(compiled, config)
        else:
            assert str(exc) == "samples must be finite"
            with np.errstate(all="ignore"):
                finite = np.isfinite(carrier_phase(compiled))
            assert not (_played(compiled) | finite).all()
        return None
    try:
        got = pulsec.synthesize(compiled, config)
    except SaturationError as mine:
        assert mine.peak <= np.max(np.abs(want.samples)) + _tolerance(compiled, config)
        return None
    assert len(got) == len(want)
    assert np.max(np.abs(got.samples - want.samples), initial=0.0) <= _tolerance(compiled, config)
    return got, want


def _one_subnormal_play(amplitude, sample):
    """One play of a one-sample primitive, with the draw's unused edge."""
    return PulseProgram(
        (SetCarrier(0.0), PlayXY("env0", amplitude, 0.0)),
        {"env0": PulsePrimitive("env0", (sample,), RATE),
         "edge0": PulsePrimitive("edge0", (0.0,), RATE, "edge")},
    )


@settings(max_examples=300, deadline=None)
@given(_programs(), st.sampled_from(_CONFIGS))
@example(_SIGNED_ZERO, CONFIG)
# subnormal plays through the FIR: the oracle and the renderer one step apart
@example(_one_subnormal_play(2.225073858507e-311, 0.875), _CONFIGS[1])
@example(_one_subnormal_play(2.2250738585e-313, 0.75), _CONFIGS[1])
def test_synthesize_matches_the_sample_oracle_property(program, config):
    try:
        compiled = pulsec.compile(program, config)
    except (ValueError, ScheduleError):
        return
    _assert_synthesizes_like_oracle(compiled, config)


@settings(max_examples=200, deadline=None)
@given(_programs(), st.sampled_from(_CONFIGS))
def test_dac_quantize_accepts_every_synthesized_composite(program, config):
    try:
        wave = pulsec.synthesize(pulsec.compile(program, config), config)
    except (ValueError, ScheduleError, SaturationError):
        return
    pulsec.dac_quantize(wave, config)


def test_silent_span_on_a_non_finite_carrier_phase_is_zeros():
    program = _program(
        (PlayXY("flat8", 0.8, math.pi / 3), SetCarrier(1e308), Delay(4.0)),
        carrier=0.25,
    )
    compiled = pulsec.compile(program, CONFIG)
    with pytest.raises(ValueError, match="finite"), np.errstate(all="ignore"):
        timeline_synthesize(compiled, CONFIG)
    out = pulsec.synthesize(compiled, CONFIG).samples
    theta = 2.0 * math.pi * 0.25 * np.arange(8) / RATE
    np.testing.assert_allclose(out[:8], 0.8 * 0.5 * np.cos(theta - math.pi / 3), atol=1e-12)
    assert out[8:].tolist() == [0.0] * 4


def test_play_on_a_non_finite_carrier_phase_is_named():
    program = _program(
        (PlayXY("flat8"), Delay(2.0), SetCarrier(1e307), Delay(2.0), PlayXY("flat8")),
        carrier=0.25,
    )
    with pytest.raises(ScheduleError) as info:
        pulsec.synthesize(pulsec.compile(program, CONFIG), CONFIG)
    assert str(info.value) == "xy play 1 in program order: carrier phase is not finite"


# programs of the benchmark's shape: 2 GS/s, about 400 k samples, 4-8 k plays

CONFIG_2 = SynthesisConfig(sample_rate=2.0)


def _long_program(seed):
    """A repeated body with virtual Z, Z holds and, for odd seeds, a nested play."""
    rng = np.random.default_rng(seed)
    amp = lambda: float(rng.uniform(0.02, 0.06))  # noqa: E731
    phase = lambda: float(rng.uniform(-math.pi, math.pi))  # noqa: E731
    prims = _store(
        PulsePrimitive("g", tuple(pulsec.cosine_envelope(int(rng.choice([8, 12, 16, 20])), 2.0)),
                       2.0),
        PulsePrimitive("e", tuple(raised_cosine_edge(4.0, 2.0)), 2.0, "edge"),
    )
    hold, level = float(rng.integers(30, 60)), float(rng.uniform(0.1, 0.3))
    delay = float(rng.integers(2, 20))
    if seed % 2:
        nested = (Delay(float(rng.integers(1, 8))), PlayXY("g", amp()))
        body = (PlayXY("g", amp(), phase()), VirtualZ(phase()), Delay(delay),
                PlayZ("e", level, hold, "e", body=nested), PlayXY("g", amp()))
    else:
        inner = Repeat(int(rng.integers(2, 6)), (PlayXY("g", amp()), VirtualZ(phase())))
        body = (inner, PlayZ("e", level, hold, "e"), Delay(delay))
    carrier = SetCarrier(float(rng.uniform(0.2, 0.25)))
    per_body = len(pulsec.compile(PulseProgram(body, prims), CONFIG_2))
    return PulseProgram((carrier, Repeat(400_000 // per_body, body)), prims)


def _long_config(seed, filters_used):
    rng = np.random.default_rng(1000 + seed)
    fir = filters.synthesize_fir(
        filters.bounded_inverse(filters.gaussian_lowpass(rng.uniform(0.09, 0.11)),
                                rng.uniform(0.2, 0.25)),
        16, 2.0,
    )
    terms = [(rng.uniform(-0.025, -0.01), rng.uniform(lo, hi))
             for lo, hi in ((20.0, 50.0), (100.0, 300.0), (500.0, 1500.0))]
    return SynthesisConfig(
        sample_rate=2.0,
        xy_fir=fir if filters_used != "none" else None,
        z_iir=filters.design_iir_corrector(terms, 2.0) if filters_used == "fir+iir" else None,
    )


def _check_long_program(seed, filters_used):
    """(plays, samples, worst |difference| / tolerance, differing DAC codes)."""
    config = _long_config(seed, filters_used)
    compiled = pulsec.compile(_long_program(seed), config)
    got, want = _assert_synthesizes_like_oracle(compiled, config)
    tol = _tolerance(compiled, config)
    codes, oracle_codes = pulsec.dac_quantize(got, config), pulsec.dac_quantize(want, config)
    differ = np.flatnonzero(codes != oracle_codes)
    # a code may differ only where the oracle sits within the tolerance of a half code
    full = 2 ** (config.dac_bits - 1) - 1
    half = np.abs(want.samples[differ]) * full % 1.0
    assert np.all(np.abs(half - 0.5) <= tol * full), differ
    ratio = np.max(np.abs(got.samples - want.samples)) / tol
    return len(compiled.xy_starts), len(compiled), ratio, differ.tolist()


@pytest.mark.parametrize("filters_used", ["none", "fir", "fir+iir"])
@pytest.mark.parametrize("seed", [0, 1])
def test_long_programs_synthesize_like_the_sample_oracle(seed, filters_used):
    plays, samples, ratio, differ = _check_long_program(seed, filters_used)
    assert 390_000 <= samples <= 400_000 and 3_000 <= plays <= 9_000
    assert ratio <= 1.0 and differ == []


def test_iir_on_a_long_z_baseband_matches_the_sectionwise_oracle():
    config = _long_config(0, "fir+iir")
    z = z_timeline(pulsec.compile(_long_program(0), config))
    assert len(z) >= 390_000 and len(config.z_iir.sections) == 3
    assert np.array_equal(filters.apply_iir(z, config.z_iir).samples,
                          sectionwise_iir(z, config.z_iir))


# blocks against the whole-array oracle: the same bytes and the same errors


def _assert_blocks_match_whole_arrays(compiled, config):
    """``synthesize`` and ``dac_codes`` give the whole-array oracle's bytes,
    or raise what it raises; returns the oracle's exception, if any."""
    try:
        want = whole_array_synthesize(compiled, config)
    except Exception as exc:
        for render in (pulsec.synthesize, pulsec.dac_codes):
            with pytest.raises(type(exc)) as info:
                render(compiled, config)
            assert str(info.value) == str(exc)
            assert vars(info.value) == vars(exc)  # a saturation's peak and index
        return exc
    assert pulsec.synthesize(compiled, config).samples.tobytes() == want.samples.tobytes()
    payload, _, _ = pulsec.dac_payload(pulsec.dac_codes(compiled, config))
    assert payload.tobytes() == whole_array_payload(compiled, config)
    return None


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(_programs(), st.sampled_from(_CONFIGS))
@example(_SIGNED_ZERO, CONFIG)
def test_blocks_match_the_whole_array_oracle_property(block, program, config):
    # plays, FIR tails, Z edges, holds and the IIR state cross block boundaries
    try:
        compiled = pulsec.compile(program, config)
    except (ValueError, ScheduleError):
        return
    with mock.patch.object(pulsec, "_BLOCK", block):
        _assert_blocks_match_whole_arrays(compiled, config)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocks_match_the_whole_array_oracle_across_every_boundary(block):
    # a FIR tail longer than the play, a hold longer than a block and an edge
    # across each boundary, through FIR and IIR
    program = _program(
        (PlayXY("cos20", 0.1, 0.3), VirtualZ(0.4), PlayXY("flat8", -0.08),
         PlayZ("edge4", 0.3, 150.0, "fall4", body=(Delay(7.0), PlayXY("cos20", 0.05))),
         Repeat(9, (PlayXY("flat8", 0.06), Delay(1.0), PlayZ("edge4", -0.2, 3.0, "fall4")))),
        carrier=0.208,
    )
    compiled = pulsec.compile(program, _CONFIGS[2])
    assert len(compiled) > 3 * 64
    with mock.patch.object(pulsec, "_BLOCK", block):
        assert _assert_blocks_match_whole_arrays(compiled, _CONFIGS[2]) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_compile_fit_shaped_programs_match_the_whole_array_oracle(seed):
    config = _long_config(seed, "fir+iir")
    compiled = pulsec.compile(_long_program(seed), config)
    assert len(compiled) > 5 * pulsec._BLOCK
    assert _assert_blocks_match_whole_arrays(compiled, config) is None


def test_saturation_names_the_largest_peak_not_the_first_exceedance():
    # 0.6 + 0.45 passes full scale in the first block; 0.7 + 0.45 is larger,
    # a whole block later
    burst = lambda level: PlayZ("edge4", level, 20.0, "fall4",  # noqa: E731
                                body=(PlayXY("flat8", 0.9),))
    program = _program((burst(0.6), Delay(float(pulsec._BLOCK)), burst(0.7), Delay(4.0)))
    compiled = pulsec.compile(program, CONFIG)
    with pytest.raises(SaturationError):
        timeline_synthesize(compiled, CONFIG)
    composite = z_timeline(compiled).samples + np.real(xy_timeline(compiled))
    first = int(np.argmax(np.abs(composite) > pulsec.FULL_SCALE))
    assert first == 4 < pulsec._BLOCK
    exc = _assert_blocks_match_whole_arrays(compiled, CONFIG)
    assert type(exc) is SaturationError
    assert (exc.peak, exc.index) == (0.45 + 0.7, 28 + pulsec._BLOCK + 4)
    assert str(exc) == f"peak {0.45 + 0.7!r} at sample {28 + pulsec._BLOCK + 4} exceeds full scale"
    # eight equal peaks from sample 4 on, over three blocks: the first is named
    with mock.patch.object(pulsec, "_BLOCK", 3):
        exc = _assert_blocks_match_whole_arrays(pulsec.compile(_program((burst(0.7),)), CONFIG),
                                                CONFIG)
    assert (exc.peak, exc.index) == (0.45 + 0.7, 4)


def test_a_nan_sample_is_refused_before_an_earlier_saturation():
    # the XY play passes full scale through a FIR of gain 4.8; two IIR
    # sections overflow on the Z hold, a block later, to inf and then NaN
    loud = filters.FirFilter(taps_float=np.full(16, 0.3), sample_rate=RATE)
    overflowing = filters.IirCorrector(
        sections=(filters.IirSection(1e308, 1e308, 0.5),) * 2, sample_rate=RATE,
        source_exponentials=())
    config = SynthesisConfig(RATE, xy_fir=loud, z_iir=overflowing)
    program = _program((PlayXY("cos20"), Delay(100.0), PlayZ("edge4", 0.5, 10.0, "fall4")))
    compiled = pulsec.compile(program, config)
    with pytest.raises(SaturationError):
        pulsec.synthesize(compiled, SynthesisConfig(RATE, xy_fir=loud))
    with mock.patch.object(pulsec, "_BLOCK", 64):
        exc = _assert_blocks_match_whole_arrays(compiled, config)
    assert (type(exc), str(exc)) == (ValueError, "samples must be finite")


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
        (dict(dac_bits=7), "dac_bits"),
        (dict(dac_bits=17), "dac_bits"),
        (dict(dac_bits=True), "dac_bits"),
        (dict(dac_bits=16.0), "dac_bits"),
        (dict(dac_bits=12.5), "dac_bits"),
    ],
)
def test_synthesis_config_rejects_bad_dac(fields, match):
    with pytest.raises(ValueError, match=match):
        SynthesisConfig(sample_rate=2.0, **fields)


def test_program_rejects_non_finite_carrier_and_samples():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="carrier"):
            _program((), carrier=bad)
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


_PRIMS = "prim g envelope 0.0 0.5 0.0\nprim e edge 0.0 1.0\n"


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("prim p envelope\n", "prim needs: prim <id> <kind> <values...|path>", 1, 1),
        ("prim p file env.txt 0.5\n", "unexpected token after path", 1, 21),
        ("prim p sine 0.5\n", "primitive kind must be envelope, edge, or file, got 'sine'",
         1, 8),
        ("carrier\n", "carrier needs exactly one frequency", 1, 1),
        ("carrier 0.2 0.3\n", "carrier needs exactly one frequency", 1, 1),
        ("xy\n", "xy needs a primitive id", 1, 1),
        (_PRIMS + "xy g amp=0.5 gain=2\n", "unexpected token 'gain=2'", 3, 14),
        ("vz 0.1 0.2\n", "vz needs exactly one phase", 1, 1),
        ("  delay\n", "delay needs exactly one duration", 1, 3),
        (_PRIMS + "z rise=e hold=0.5,4\n", "z needs: z rise=<prim> hold=<amp>,<ns> fall=<prim>",
         3, 1),
        (_PRIMS + "z rise=e hld=0.5,4 fall=e\n", "expected hold=..., got 'hld=0.5,4'", 3, 10),
        (_PRIMS + "z rise=e hold=0.5,4 fall=f\n", "unknown primitive 'f'", 3, 21),
        (_PRIMS + "z rise=e hold=0.5 fall=e\n", "hold needs <amp>,<ns>", 3, 10),
        (_PRIMS + "z rise=e hold=0.5,4 fall=e x\n", "unexpected token 'x'", 3, 28),
        ("repeat\n", "repeat needs a count", 1, 1),
        ("repeat two {\n}\n", "bad count 'two'", 1, 8),
        ("repeat 3\n", "repeat needs a '{' block", 1, 8),
        (_PRIMS + "repeat 3 { xy g\n}\n", "'{' must end the line", 3, 12),
        (_PRIMS + "repeat 3 {\nxy g\n} vz 0.1\n", "'}' must end the line", 5, 3),
    ],
)
def test_parse_refusals_name_their_line_and_column(tmp_path, text, message, line, column):
    (tmp_path / "env.txt").write_text("0.0 0.5\n")
    with pytest.raises(ProgramParseError) as info:
        pulsec.parse_program(text, RATE, base_dir=tmp_path)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"{message} (line {line}, column {column})", line, column)


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
