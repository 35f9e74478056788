"""The refusal contract: one row per config the CLI must refuse, or must run.

Each row of ``FAULTS`` is ``(mode, config, code, keys, message)``:

- ``config`` holds the config file's lines over the built-in defaults;
- ``code`` is the exit status of ``amorsim <mode> --config <file>``;
- ``keys`` is the key, or the tuple of keys, the stderr message must name;
  a refusal's message leads with one of them (``<key>: ...``);
- ``message``, where given, is that message exactly.

A refused run (code 2, a ``ConfigError``; code 3, a numerical failure)
leaves no ``--out``. ``tests/test_cli.py`` runs every row in-process:
``test_config_faults_exit_2_naming_key`` each code-2 row once per key, and
``test_fault_table`` the rest. ``scripts/compare_outputs.py --faults`` runs
the working tree's table in the tree and in a git revision. A mode's new rule
gets a row here. A row whose code is 0 shows that a mode refuses no more
than it must.
"""

_FLOOR = "detector.electronic_noise_floor = 1.35e-14"
_ANALYZER_MODES = ("spectrum", "noise-scan", "sensitivity-sweep")

FAULTS = [
    ("simulate", "atom.cell_radius = 1e300", 2, "atom.cell_radius", None),
    ("simulate", "atom.g_f = -0.3333333333333333", 2, "atom.g_f", None),
    ("simulate", "atom.g_f = 0", 2, "atom.g_f", None),
    # a unit suffix must measure the key's own unit; an unparseable number
    ("simulate", "field.b_field = 7.6 kHz", 2, "field.b_field", None),
    ("spectrum", "sim.probe_power = 80 uT", 2, "sim.probe_power", None),
    ("simulate", "atom.g_f = 1 Hz", 2, "atom.g_f", None),
    ("simulate", "field.b_field = none", 2, "field.b_field", None),
    ("simulate", "field.b_field = 0", 2, "field.b_field", None),
    # unknown keys, deleted ones among them
    *[("simulate", f"{key} = 1e-3", 2, key, None)
      for key in ("resonance.phi_zero", "detector.gain_uncertainty_rel",
                  "detector.electronic_noise_table",
                  "detector.photocurrent_convention", "snlmap.jitter_rel",
                  "snlmap.elec_knee_freq", "field.detuning_delta",
                  "saturation.phi0_scale", "saturation.gamma0",
                  "analysis.integration_time")],
    # sensitivity-sweep once read analysis.integration_time; a density in
    # T/sqrt(Hz) has none, so its config refuses the key too
    ("sensitivity-sweep", "analysis.integration_time = 1.0", 2,
     "analysis.integration_time", None),
    ("simulate", "field.detuning_delta = 0", 2, "field.detuning_delta", None),
    *[("simulate", f"{key} = {value}", 2, key, None)
      for key, value in (("sim.duration", "inf"), ("sim.probe_power", "inf"),
                         ("atom.g_f", "nan"))],
    # only simulate samples the real series at sim.sample_rate, and
    # 4x 70.9 kHz > 100 kHz; spectrum reads the envelope of its span
    ("simulate", "sim.sample_rate = 100 kHz", 2, "sim.sample_rate",
     "sim.sample_rate: must exceed 4x the modulation frequency "
     "(70914.307579755 Hz) (got 100000.0)"),
    ("spectrum", "sim.sample_rate = 100 kHz", 0, None, None),
    # (knee / freq) ** 2 and the squared gain overflow a Python float, the
    # knee at snl-map's lowest bin or at sensitivity-sweep's carrier; a
    # zero floor has no knee (test_snl_map_with_no_floor_runs_at_any_knee)
    ("snl-map", f"detector.electronic_knee_freq = 1e300\n{_FLOOR}", 2,
     "detector.electronic_knee_freq", None),
    ("sensitivity-sweep", "detector.electronic_knee_freq = 1e300\n"
     f"snlmap.freq_min = 1e200\nsnlmap.freq_max = 1e201\n{_FLOOR}", 2,
     "detector.electronic_knee_freq", None),
    ("snl-map", "snlmap.second_gain_nominal = 1e200", 2,
     "snlmap.second_gain_nominal", None),
    # the second gain's terms, relative to the nominal one, overflow
    ("snl-map", "detector.transimpedance_gain_nominal = 1e-160", 2,
     ("detector.transimpedance_gain_nominal", "snlmap.second_gain_nominal"),
     None),
    # an infinite margin would write nan p_low cells at a zero floor
    *[("snl-map", f"snlmap.k_values = 1,{k}\n"
       "detector.electronic_noise_floor = 0", 2, "snlmap.k_values", None)
      for k in ("inf", "1e400")],
    # powers ** 2 in the budget overflow where the power is read: P^2 at
    # 1e200; at 1e150 the analyzer's periodogram, noise-scan's fit matrix,
    # or sensitivity-sweep's resonance width (its rule is below)
    ("sensitivity-sweep", "sweep.power_max = 1e300", 2, "sweep.power_max",
     None),
    *[(mode, "sim.probe_power = 1e200", 2, "sim.probe_power", None)
      for mode in ("simulate", "spectrum", "demod-sweep")],
    ("spectrum", "sim.probe_power = 1e150", 2, "sim.probe_power", None),
    *[(mode, "sweep.power_max = 1e150", 2, "sweep.power_max", None)
      for mode in ("sensitivity-sweep", "noise-scan")],
    # the noise fit's 1/N column squared overflows, which stalls its SVD
    ("noise-scan", "sweep.power_min = 1e-200", 2, "sweep.power_min", None),
    # short of the overflow rules (spectrum's from 3e148, the sweeps' from
    # 1e148 and 1e145, noise-scan's grid from 1e-145 down) every mode runs
    *[(mode, setting, 0, None, None) for mode, setting in (
        ("simulate", "sim.probe_power = 1e150"),
        ("demod-sweep", "sim.probe_power = 1e150"),
        ("spectrum", "sim.probe_power = 2e148"),
        ("sensitivity-sweep", "sweep.power_max = 5e147"),
        ("noise-scan", "sweep.power_max = 1e144"),
        ("noise-scan", "sweep.power_min = 1e-144"))],
    # sensitivity-sweep reads its tone rows on its narrow tone band and its
    # background on the window with no tone: with neither width broadening
    # nor technical noise, 1e150 W overflows neither periodogram (the
    # window's with the tone once did), and 1e152 W the tone band's
    *[("sensitivity-sweep", "saturation.p_broad = 1e300\n"
       f"detector.technical_noise_coef = 0\nsweep.power_max = {power}", code,
       "sweep.power_max" if code else None, None)
      for power, code in (("1e150", 0), ("1e152", 2))],
    # the tone band refuses nothing the window runs: a video filter (vbw
    # 0.3 or 10 Hz, or rbw 300 Hz over the 30 Hz vbw) takes the window,
    # and rbw = vbw = 100 Hz a 500 Hz band past three refused ones
    *[("sensitivity-sweep", setting, 0, None, None) for setting in (
        "spectrum.vbw = 0.3", "spectrum.rbw = 300", "spectrum.vbw = 10",
        "spectrum.rbw = 100\nspectrum.vbw = 100")],
    # a mode refuses only the powers it reads: snl-map none, simulate,
    # spectrum and demod-sweep sim.probe_power, the sweeps their grid
    # (sensitivity-sweep reads sim.probe_power too, as its resonance's
    # anchor; its rules are below)
    *[("snl-map", f"{key} = 1e300", 0, None, None)
      for key in ("sim.probe_power", "sweep.power_max")],
    *[(mode, "sweep.power_max = 1e300", 0, None, None)
      for mode in ("simulate", "spectrum", "demod-sweep")],
    ("noise-scan", "sim.probe_power = 1e300", 0, None, None),
    # the lock-in cannot refer rows to radians: g = 0 (nu = c/lambda
    # overflows), or N(P)/g^2 overflows; the message names the chain keys
    ("demod-sweep", "atom.probe_wavelength = 1e-300", 2,
     ("atom.probe_wavelength", "sim.probe_power"), None),
    ("demod-sweep", "sim.probe_power = 1e-300", 2, "sim.probe_power", None),
    ("demod-sweep", f"detector.gain_headroom_factor = 1e-300\n{_FLOOR}", 2,
     ("detector.gain_headroom_factor", "sim.probe_power"), None),
    # a tone buried in noise: the Lorentzian fit fails on noise alone, a
    # numerical failure (the fit's guessed width outgrows the grid), told
    # by the tone-to-noise ratio that its keys set, not by the grid
    ("demod-sweep", "resonance.phi0 = 1e-12", 3,
     ("resonance.phi0", "sim.probe_power"),
     "resonance.phi0: the Lorentzian fit read noise, not the resonance: the "
     "tone-to-noise ratio on the grid, phi0 / sqrt(N(P)/g(P)^2 * "
     "lockin.output_bandwidth) = 7.179647624014032e-06 at 8.05e-05 W, is at "
     "most 1. It is set by resonance.phi0, sim.probe_power, "
     "detector.electronic_noise_floor, atom.probe_wavelength, "
     "detector.quantum_efficiency, detector.transimpedance_gain_nominal, "
     "detector.gain_headroom_factor, detector.analyzer_impedance and "
     "detector.technical_noise_coef"),
    # a 47 Hz resonance with a +-240 Hz grid would sweep negative carriers
    ("demod-sweep", "field.b_field = 5 nT", 2, "sweep.freq_halfspan_widths",
     None),
    # a grid under two linewidths is too narrow for the Lorentzian fit
    ("demod-sweep", "sweep.freq_halfspan_widths = 0.5", 2,
     "sweep.freq_halfspan_widths", None),
    # the lock-in filter would not settle in 0.4 s, or would pass 2f of
    # the lowest carrier (about 70.7 kHz) with under 60 dB of rejection
    *[("demod-sweep", f"lockin.output_bandwidth = {bw}", 2,
       "lockin.output_bandwidth", None) for bw in ("1 Hz", "200 kHz")],
    ("demod-sweep", "sweep.freq_points = 5", 2, "sweep.freq_points", None),
    # a carrier at or below 0 Hz, or a field whose resonance overflows to
    # inf, is named by its own key
    ("simulate", "field.modulation_freq = -5", 2, "field.modulation_freq",
     None),
    *[(mode, f"field.modulation_freq = {mod}\n{_FLOOR}", 2,
       "field.modulation_freq", None)
      for mode in ("simulate", *_ANALYZER_MODES) for mod in ("-5", "0")],
    *[(mode, "field.b_field = 1e300", 2, "field.b_field", None)
      for mode in ("simulate", "spectrum", "sensitivity-sweep",
                   "demod-sweep")],
    ("noise-scan", "noisescan.second_b_field = 1e300", 2,
     "noisescan.second_b_field", None),
    ("noise-scan", f"noisescan.second_b_field = 1e300\n{_FLOOR}", 2,
     "noisescan.second_b_field", None),
    # the 4 kHz background window around a 933 Hz modulation reaches 0 Hz;
    # at the second scan's 9.33 Hz its field is the one to raise
    *[(mode, config, 2, "spectrum.bg_window", None) for mode, config in (
        ("spectrum", "field.b_field = 100 nT"),
        ("noise-scan", "field.b_field = 100 nT"),
        ("noise-scan", f"field.b_field = 100 nT\n{_FLOOR}"),
        ("sensitivity-sweep", "field.b_field = 100 nT"))],
    *[("noise-scan", config, 2, ("spectrum.bg_window",
                                 "noisescan.second_b_field"), None)
      for config in ("noisescan.second_b_field = 1e-9",
                     f"noisescan.second_b_field = 1e-9\n{_FLOOR}")],
    # a carrier set by field.modulation_freq is the one to raise when the
    # background window around it reaches 0 Hz (or the window to narrow)
    *[(mode, "field.modulation_freq = 100", 2,
       ("field.modulation_freq", "spectrum.bg_window"), None)
      for mode in _ANALYZER_MODES],
    # a vbw so far below rbw that the video filter moves less than one
    # level across the trace (its pole rounds to 1.0 at 1e-20 Hz): every
    # trace would stay near its first bins' level; 3 mHz moves 0.84 levels
    # across the 40 kHz span, 0.084 across the 4 kHz window
    *[(mode, f"spectrum.vbw = {vbw}\n{_FLOOR}", 2, "spectrum.vbw", None)
      for mode in _ANALYZER_MODES
      for vbw in ("1e-20", "1e-15", "1e-12", "1e-9")],
    *[(mode, f"spectrum.vbw = 3e-3\n{_FLOOR}", 2, "spectrum.vbw", None)
      for mode in ("spectrum", "noise-scan")],
    # the off-resonance trace would stop inside the background window, or
    # at 1 uT, its envelope at 0 Hz, no 8 Hz-spaced bin falls within
    # +-0.25 Hz of the modulation: spectrum reads both off its traces
    ("spectrum", "spectrum.span = 2000", 2,
     ("spectrum.span", "spectrum.bg_window"), None),
    ("spectrum", "field.b_field = 1 uT\nspectrum.bg_window = 0.5", 2,
     ("spectrum.span", "spectrum.bg_window"),
     "spectrum.span: 40000.0 Hz must reach a trace bin past each edge of "
     "spectrum.bg_window (0.5 Hz), and the window must hold a trace bin"),
    # the analyzer's flat-top segment would not fit the band's envelope
    # (rbw too coarse for it) or the series (sim.duration too short; a
    # 15273-sample segment at the 4 kHz window's 4050 Hz envelope rate)
    ("noise-scan", f"spectrum.bg_window = 20\n{_FLOOR}", 2,
     ("spectrum.rbw", "spectrum.bg_window"),
     "spectrum.rbw: 30.0 Hz is too coarse for spectrum.bg_window = 20.0 Hz; "
     "lower spectrum.rbw or widen spectrum.bg_window"),
    ("sensitivity-sweep", f"spectrum.bg_window = 20\n{_FLOOR}", 2,
     ("spectrum.rbw", "spectrum.bg_window"), None),
    ("spectrum", f"spectrum.span = 20\n{_FLOOR}", 2,
     ("spectrum.rbw", "spectrum.span"),
     "spectrum.rbw: 30.0 Hz is too coarse for spectrum.span = 20.0 Hz; "
     "lower spectrum.rbw or widen spectrum.span"),
    ("sensitivity-sweep", f"spectrum.rbw = 1\n{_FLOOR}", 2,
     ("spectrum.rbw", "sim.duration"),
     "spectrum.rbw: 1.0 Hz needs sim.duration >= 3.7711111111111113 s for one "
     "analyzer segment (got 0.4)"),
    *[(mode, config, 2, ("spectrum.rbw", "sim.duration"), None)
      for mode, config in (("noise-scan", f"spectrum.rbw = 1\n{_FLOOR}"),
                           ("spectrum", f"spectrum.rbw = 1\n{_FLOOR}"),
                           ("sensitivity-sweep", "spectrum.rbw = 1"))],
    # a log grid one ulp wide repeats a power
    ("sensitivity-sweep", "sweep.power_min = 1e-5\n"
     "sweep.power_max = 1.0000000000000002e-05\nsweep.power_points = 3", 2,
     ("sweep.power_points", "sweep.power_min", "sweep.power_max"), None),
    # too few points for the 3-term noise fit (4, counting the dark point)
    *[("noise-scan", f"noisescan.include_zero = {dark}\n"
       f"sweep.power_points = {points}", 2,
       ("sweep.power_points", "noisescan.include_zero"), None)
      for dark, points in (("true", 2), ("false", 3))],
    # a dark point reads the electronic floor alone: the built-in zero
    # floor reads nothing, and a subnormal one gives the dark row a fit
    # weight 1/N that overflows (the fit's SVD would not converge); 1e-300
    # is a floor the fit takes
    ("noise-scan", "noisescan.include_zero = true", 2,
     ("detector.electronic_noise_floor", "noisescan.include_zero"), None),
    *[("noise-scan", f"detector.electronic_noise_floor = {floor}\n"
       "noisescan.include_zero = true", 2,
       ("noisescan.include_zero", "detector.electronic_noise_floor"), None)
      for floor in ("0", "1e-320", "5e-324")],
    ("noise-scan", "detector.electronic_noise_floor = 1e-300\n"
     "noisescan.include_zero = true", 0, None, None),
    # no resonance to fit, or for spectrum an SNR read off noise alone
    *[(mode, "resonance.phi0 = 0", 2, "resonance.phi0", None)
      for mode in ("demod-sweep", "spectrum", "sensitivity-sweep")],
    # no background at the lowest power an analyzer mode reads: nu = c/lambda
    # overflows, so B and g are 0 on the built-in zero electronic floor; or
    # spectrum's probe is dark
    *[(mode, "atom.probe_wavelength = 1e-300", 2,
       (power_key, "atom.probe_wavelength"), None)
      for mode, power_key in (("spectrum", "sim.probe_power"),
                              ("noise-scan", "sweep.power_min"),
                              ("sensitivity-sweep", "sweep.power_min"))],
    ("spectrum", "sim.probe_power = 0", 2, "sim.probe_power", None),
    # no tone above the background: every reading would be noise alone
    ("sensitivity-sweep", "detector.electronic_noise_floor = 1e-14\n"
     "atom.probe_wavelength = 1e-300", 2,
     ("sweep.power_min", "atom.probe_wavelength"), None),
    # far past the small-angle range the analyzer's square overflows
    ("spectrum", "resonance.phi0 = 1e300", 2, "resonance.phi0", None),
    # a noise floor whose largest squared bin would overflow though its
    # mean summed over the segments does not; 3e298 is a floor spectrum
    # reads, and the sweeps' narrower windows read 1e300
    ("spectrum", "detector.electronic_noise_floor = 1e300", 2,
     ("sim.probe_power", "detector.electronic_noise_floor"), None),
    ("spectrum", "detector.electronic_noise_floor = 3e298", 0, None, None),
    *[(mode, "detector.electronic_noise_floor = 1e300", 0, None, None)
      for mode in ("noise-scan", "sensitivity-sweep")],
    # simulate's wave and shot draw: (pi * gamma_fwhm)^2 underflows to 0
    # or overflows (the quadratures read 0/0 or inf/inf), or 1/(2 Phi)
    # times the rate overflows; 1e-150, 1e150 and 1e-300 W run
    *[("simulate", f"resonance.gamma_fwhm = {gamma}", 2,
       "resonance.gamma_fwhm", None) for gamma in ("5e-324", "1e-300",
                                                   "1e300")],
    ("simulate", "sim.probe_power = 5e-324", 2, "sim.probe_power", None),
    *[("simulate", setting, 0, None, None) for setting in (
        "resonance.gamma_fwhm = 1e-150", "resonance.gamma_fwhm = 1e150",
        "sim.probe_power = 1e-300")],
    # spectrum's on-resonance tone shares simulate's rule; noise-scan's
    # rows are None rows with no tone, so they read no quadrature and run
    # at any width
    *[(mode, f"resonance.gamma_fwhm = {gamma}", code,
       "resonance.gamma_fwhm" if code else None, None)
      for mode, code in (("spectrum", 2), ("noise-scan", 0))
      for gamma in ("5e-324", "1e-300", "1e300")],
    # demod-sweep's grid half-span, 4 widths, rounds away at its carrier
    *[("demod-sweep", f"resonance.gamma_fwhm = {gamma}", 2,
       "resonance.gamma_fwhm", None) for gamma in ("5e-324", "1e-300")],
    # sensitivity-sweep scales resonance.* at sim.probe_power P0 to each
    # swept power P by the saturation s(P)/s(P0), s(P) = P / (P + p_sat):
    # s(P0) = 0 at a dark P0 or where s underflows; phi0 at the top power
    # past the small-angle range (5e-324 W reads an s(P0) so small that
    # the scale overflows); or the width (p_broad + P) / (p_broad + P0)
    # times resonance.gamma_fwhm whose quadratures are not finite, too
    # narrow at sweep.power_min below a huge P0 or too wide at the top
    ("sensitivity-sweep", "sim.probe_power = 0", 2,
     ("sim.probe_power", "saturation.p_sat"),
     "sim.probe_power: the saturation s(P0) = P0 / (P0 + saturation.p_sat), "
     "which scales resonance.phi0 to other powers as s(P)/s(P0), must be "
     "> 0 (got 0.0)"),
    ("sensitivity-sweep", "saturation.p_sat = 1e300\nsim.probe_power = 1e-30",
     2, ("sim.probe_power", "saturation.p_sat"), None),
    *[("sensitivity-sweep", setting, 2, ("sweep.power_max", "resonance.phi0",
                                         "saturation.p_sat", "sim.probe_power"),
       None) for setting in ("resonance.phi0 = 0.9", "sim.probe_power = 1e-8",
                             "sim.probe_power = 5e-324")],
    ("sensitivity-sweep", "resonance.phi0 = 0.8", 0, None, None),
    *[("sensitivity-sweep", setting, 2, (key, "resonance.gamma_fwhm",
                                         "saturation.p_broad", "sim.probe_power"),
       None) for key, setting in (
           ("sweep.power_min", "sim.probe_power = 1e300"),
           ("sweep.power_max", "resonance.gamma_fwhm = 1e153"))],
    # simulate reads resonance.* as it is at its P0, a dark one included
    ("simulate", "sim.probe_power = 0", 0, None, None),
    ("simulate", "resonance.gamma_fwhm = 1e153", 0, None, None),
    # the projection-noise floor sensitivity_report.json quotes must be
    # finite, or the report is not JSON, and > 0; the rule leads with
    # atom.relaxation_gamma and lists the other atom.* keys that set it
    ("sensitivity-sweep", "atom.density_n = 1e-320", 2,
     ("atom.density_n", "atom.relaxation_gamma"), None),
    ("sensitivity-sweep", "atom.relaxation_gamma = 1e-320", 2,
     "atom.relaxation_gamma", None),
    # at the other end of either key the floor stays finite and > 0
    *[("sensitivity-sweep", f"{key} = 1e300", 0, None, None)
      for key in ("atom.density_n", "atom.relaxation_gamma")],
    # a grid of 1e15 points: numpy refuses it at allocation, noise-scan's
    # before the dark point's floor rule
    ("noise-scan", f"sweep.power_points = {10 ** 15}\n"
     "noisescan.include_zero = true", 2, "sweep.power_points", None),
    *[(mode, f"{key} = {10 ** 15}", 2, key, None) for mode, key in (
        ("sensitivity-sweep", "sweep.power_points"),
        ("snl-map", "snlmap.freq_bins"),
        ("demod-sweep", "sweep.freq_points"))],
    # float64 cannot resolve the 8 Hz analyzer bins, or demod-sweep's 8 Hz
    # grid step, at the carrier: a strictly increasing grid would repeat a
    # value, or an envelope's band round away
    *[(mode, f"field.modulation_freq = {mod}", 2, "field.modulation_freq",
       None) for mode in _ANALYZER_MODES for mod in ("1e17", "1e20", "1e300")],
    *[(mode, f"field.b_field = {b_field}", 2, "field.b_field", None)
      for mode in ("demod-sweep", *_ANALYZER_MODES)
      for b_field in ("1e7", "1e10")],
    # a width that makes demod-sweep's grid step too fine at an ordinary
    # carrier: the rule leads with the field and names the width too
    ("demod-sweep", "resonance.gamma_fwhm = 1e-11", 2,
     ("field.b_field", "resonance.gamma_fwhm"), None),
    ("noise-scan", "noisescan.second_b_field = 1e7", 2,
     "noisescan.second_b_field", None),
    # a series of 1e12 s is exabytes: numpy refuses one row of it at
    # allocation, which sim.duration sized whatever the row count
    ("simulate", "sim.duration = 1e12", 2, "sim.duration", None),
    *[(mode, f"sim.duration = 1e12\n{_FLOOR}", 2, "sim.duration", None)
      for mode in ("simulate", "demod-sweep", *_ANALYZER_MODES)],
    # 1e30 s: sample counts past C's ssize_t, which the analyzer rule's
    # Welch segment count must take as Python ints before the stack is refused
    *[(mode, f"sim.duration = 1e30\n{_FLOOR}", 2, "sim.duration", None)
      for mode in _ANALYZER_MODES],
    # 1e15 on/off pairs of 1620 samples: the rows together are past numpy
    ("sensitivity-sweep", f"sweep.trace_avg = {10 ** 15}", 2,
     "sweep.trace_avg", None),
    # simulate's real series: under 2 samples, or past numpy's size limit
    *[("simulate", f"sim.duration = {value}", 2, "sim.duration", None)
      for value in ("1e-31", "1e30")],
    ("simulate", "sim.sample_rate = 1e30", 2,
     ("sim.sample_rate", "sim.duration"), None),
    # a band narrower than float64 resolves at its carrier has no width
    ("spectrum", "spectrum.span = 1e-31", 2, "spectrum.span", None),
    ("noise-scan", f"spectrum.bg_window = 1e-31\n{_FLOOR}", 2,
     "spectrum.bg_window", None),
    ("sensitivity-sweep", "spectrum.bg_window = 1e-31", 2,
     "spectrum.bg_window", None),
]
