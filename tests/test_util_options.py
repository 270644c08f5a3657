"""Tests for the HPDDM-style option registry."""

import dataclasses

import pytest

from repro.util.options import OptionError, Options, parse_hpddm_args


class TestOptionsValidation:
    def test_defaults_are_valid(self):
        opt = Options()
        assert opt.krylov_method == "gmres"
        assert opt.gmres_restart == 30
        assert opt.tol == 1.0e-8

    def test_unknown_method_rejected(self):
        with pytest.raises(OptionError, match="krylov_method"):
            Options(krylov_method="supergmres")

    def test_unknown_variant_rejected(self):
        with pytest.raises(OptionError, match="variant"):
            Options(variant="middle")

    def test_unknown_ortho_rejected(self):
        with pytest.raises(OptionError, match="orthogonalization"):
            Options(orthogonalization="qr")

    def test_removed_ortho_schemes_refused(self):
        """``mgs`` / ``imgs`` / ``sketched`` are no schemes: refused at
        construction and on the command line, naming the three there are."""
        valid = r"\('cgs', 'cgs2_1r', 'cholqr2'\)"
        for scheme in ("mgs", "imgs", "sketched"):
            with pytest.raises(OptionError, match=valid):
                Options(orthogonalization=scheme)
            with pytest.raises(OptionError, match=valid):
                parse_hpddm_args(["-hpddm_orthogonalization", scheme])

    def test_flexible_variant_refused(self):
        """``flexible`` is no variant: ``right`` stores ``Z = M(V)`` and
        runs FGMRES / FGCRO-DR.  Refused at construction and on the command
        line, naming the two variants there are."""
        valid = r"\('left', 'right'\).*'right' stores Z"
        with pytest.raises(OptionError, match=valid):
            Options(variant="flexible")
        with pytest.raises(OptionError, match=valid):
            parse_hpddm_args("-hpddm_variant flexible".split())

    def test_unknown_qr_rejected(self):
        # the step's normalizer is fixed: ``qr`` is no field at all
        with pytest.raises(TypeError, match="qr"):
            Options(qr="lu")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OptionError, match="recycle_strategy"):
            Options(recycle_strategy="C")

    def test_recycle_bounds_for_gcrodr(self):
        # k must satisfy 0 < k < m
        with pytest.raises(OptionError, match="recycle"):
            Options(krylov_method="gcrodr", gmres_restart=30, recycle=0)
        with pytest.raises(OptionError, match="recycle"):
            Options(krylov_method="gcrodr", gmres_restart=30, recycle=30)
        opt = Options(krylov_method="gcrodr", gmres_restart=30, recycle=29)
        assert opt.recycle == 29

    def test_recycle_ignored_bound_for_gmres(self):
        # plain GMRES may carry recycle (used by lgmres augment default)
        opt = Options(krylov_method="lgmres", recycle=10)
        assert opt.recycle == 10

    def test_negative_recycle_rejected(self):
        with pytest.raises(OptionError):
            Options(recycle=-1)

    def test_tol_bounds(self):
        with pytest.raises(OptionError):
            Options(tol=0.0)
        with pytest.raises(OptionError):
            Options(tol=1.5)

    def test_restart_bound(self):
        with pytest.raises(OptionError):
            Options(gmres_restart=0)

    def test_max_it_bound(self):
        with pytest.raises(OptionError):
            Options(max_it=0)


class TestOptionsProperties:
    def test_is_block(self):
        assert Options(krylov_method="bgmres").is_block
        assert Options(krylov_method="bgcrodr", recycle=5).is_block
        assert not Options(krylov_method="gmres").is_block

    def test_is_recycling(self):
        assert Options(krylov_method="gcrodr", recycle=5).is_recycling
        assert not Options(krylov_method="bgmres").is_recycling

    def test_replace_revalidates(self):
        opt = Options()
        with pytest.raises(OptionError):
            opt.replace(krylov_method="gcrodr", recycle=0)
        opt2 = opt.replace(krylov_method="gcrodr", recycle=10)
        assert opt2.recycle == 10
        assert opt.recycle == 0  # original untouched

    def test_fields_are_frozen(self):
        opt = Options()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opt.tol = 1e-4
        with pytest.raises(dataclasses.FrozenInstanceError):
            opt.extra = {"schwarz_method": "oras"}
        assert opt.tol == 1.0e-8 and opt.extra == {}

    def test_as_dict_roundtrip(self):
        opt = Options(krylov_method="bgcrodr", recycle=7, tol=1e-6)
        d = opt.as_dict()
        opt2 = Options(**d)
        assert opt2 == opt


class TestHpddmArgs:
    def test_parse_artifact_command_line(self):
        # the exact flags from the paper's artifact description, section E
        args = ("-hpddm_recycle_same_system -ksp_pc_side right "
                "-ksp_rtol 1.0e-6 -hpddm_recycle 10 -hpddm_krylov_method "
                "gcrodr -hpddm_gmres_restart 30").split()
        opt = parse_hpddm_args(args)
        assert opt.krylov_method == "gcrodr"
        assert opt.recycle == 10
        assert opt.gmres_restart == 30
        assert opt.recycle_same_system

    def test_parse_variant_strategy(self):
        args = ("-hpddm_krylov_method gcrodr -hpddm_recycle 10 "
                "-hpddm_gmres_restart 30 -hpddm_tol 1.0e-8 "
                "-hpddm_variant left -hpddm_recycle_strategy B").split()
        opt = parse_hpddm_args(args)
        assert opt.variant == "left"
        assert opt.recycle_strategy == "B"
        assert opt.tol == 1.0e-8

    def test_foreign_options_are_ignored(self):
        opt = parse_hpddm_args(["-pc_type", "gamg", "-hpddm_recycle", "3",
                                "-hpddm_krylov_method", "gcrodr"])
        assert opt.recycle == 3

    def test_unknown_hpddm_option_lands_in_extra(self):
        opt = parse_hpddm_args(["-hpddm_schwarz_method", "oras"])
        assert opt.extra["schwarz_method"] == "oras"

    def test_missing_value_raises(self):
        with pytest.raises(OptionError, match="expects a value"):
            parse_hpddm_args(["-hpddm_recycle"])

    def test_bool_flag_with_explicit_value(self):
        opt = parse_hpddm_args(["-hpddm_recycle_same_system", "false"])
        assert not opt.recycle_same_system

    def test_render_roundtrip(self):
        opt = Options(krylov_method="gcrodr", recycle=10, gmres_restart=40,
                      recycle_same_system=True, variant="left")
        assert parse_hpddm_args(opt.hpddm_args()) == opt
        # every option away from its default, and a tol `:g` would round
        every = Options(
            krylov_method="bgcrodr", gmres_restart=40, recycle=7,
            recycle_strategy="B", recycle_same_system=True,
            variant="left", tol=1.2345678e-9, max_it=777,
            orthogonalization="cholqr2", deflation_tol=3.5e-13,
            block_reduction=True, verify="cheap", trace="summary",
            service_pmax=8, service_flush="explicit",
            service_cache_entries=5, service_mode="async",
            service_shards=3, service_deadline=0.125,
            service_queue_depth=9, sequence_adopt=False,
            sequence_warm_start=True)
        default = Options()
        assert all(getattr(every, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(Options) if f.name != "extra")
        assert parse_hpddm_args(every.hpddm_args()) == every
        assert parse_hpddm_args(default.hpddm_args()) == default

    def test_removed_flags_land_in_extra(self):
        opt = parse_hpddm_args(["-hpddm_qr", "tsqr",
                                "-hpddm_recycle_target", "largest"])
        assert opt.extra == {"qr": "tsqr", "recycle_target": "largest"}
        assert not hasattr(opt, "qr") and not hasattr(opt, "recycle_target")

    def test_defaults_mapping(self):
        opt = parse_hpddm_args([], defaults={"tol": 1e-4})
        assert opt.tol == 1e-4
