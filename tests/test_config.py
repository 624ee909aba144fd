import json
from pathlib import Path

import pytest

from dmdk.config import (
    RunConfig,
    effective_dict,
    load_config,
    parse_config,
    validate_config,
)


def test_defaults_match_documented_values():
    run = RunConfig()
    assert run.model.d == 512
    assert run.model.heads == 8
    assert run.model.decoder_layers == 3
    assert run.model.gcn_layers == 2
    assert run.fusion.lambda1 == run.fusion.lambda2 == run.fusion.lambda3 == 1.0
    assert run.train.lr == 1e-4
    assert run.train.batch == 128
    assert run.train.weight_decay == 1e-3
    assert run.train.epochs == 30
    assert run.train.min_freq == 3
    assert run.decode.max_length == 64
    assert run.labels.fallback == "all"
    assert run.ablation == "full"


def test_partial_overlay_keeps_other_defaults():
    run = parse_config({"model": {"d": 64}, "train": {"lr": 0.01}})
    assert run.model.d == 64
    assert run.model.heads == 8
    assert run.train.lr == 0.01
    assert run.train.batch == 128


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config section 'optimizer'"):
        parse_config({"optimizer": {}})


def test_unknown_key_rejected_with_dotted_name():
    with pytest.raises(ValueError, match="model.dropout"):
        parse_config({"model": {"dropout": 0.1}})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"model": {"positional": "sinusoidal"}}, "unknown config key 'model.positional'"),
        ({"model": {"pre_norm": False}}, "unknown config key 'model.pre_norm'"),
        ({"features": {"fuse": "concat"}}, "unknown config section 'features'"),
    ],
    ids=["model.positional", "model.pre_norm", "features.fuse"],
)
def test_removed_options_are_rejected_as_unknown(obj, message):
    with pytest.raises(ValueError, match=message):
        parse_config(obj)


@pytest.mark.parametrize(
    "field, value", [("d", 4097), ("decoder_layers", 33), ("gcn_layers", 33), ("ffn_multiplier", 17)]
)
def test_model_sizes_have_upper_bounds(field, value):
    parse_config({"model": {"heads": 1, field: value - 1}})
    with pytest.raises(ValueError, match=f"'model.{field}' is out of range: {value} \\(allowed 1..{value - 1}\\)"):
        parse_config({"model": {"heads": 1, field: value}})


def test_readme_defaults_block_matches_the_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Defaults:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == effective_dict(RunConfig())


def test_bool_is_not_an_int():
    with pytest.raises(ValueError, match="model.d"):
        parse_config({"model": {"d": True}})


def test_int_accepted_where_float_expected():
    run = parse_config({"train": {"lr": 1}})
    assert run.train.lr == 1.0
    assert isinstance(run.train.lr, float)


def test_string_where_int_expected_rejected():
    with pytest.raises(ValueError, match="train.epochs"):
        parse_config({"train": {"epochs": "30"}})


def test_d_must_divide_by_heads():
    with pytest.raises(ValueError, match="model.d"):
        validate_config(parse_config({"model": {"d": 10, "heads": 4}}))


def test_fallback_enum_checked():
    with pytest.raises(ValueError, match="labels.fallback"):
        validate_config(parse_config({"labels": {"fallback": "none"}}))


def test_ablation_enum_checked():
    with pytest.raises(ValueError, match="ablation"):
        validate_config(parse_config({"ablation": "half"}))


def test_lambda_must_be_positive():
    with pytest.raises(ValueError, match="fusion.lambda2"):
        validate_config(parse_config({"fusion": {"lambda2": 0.0}}))


def test_lambda_must_be_finite():
    with pytest.raises(ValueError, match="fusion.lambda3"):
        validate_config(parse_config({"fusion": {"lambda3": float("inf")}}))


def test_lr_must_be_positive():
    with pytest.raises(ValueError, match="train.lr"):
        validate_config(parse_config({"train": {"lr": 0.0}}))


def test_weight_decay_may_be_zero_not_negative():
    validate_config(parse_config({"train": {"weight_decay": 0.0}}))
    with pytest.raises(ValueError, match="train.weight_decay"):
        validate_config(parse_config({"train": {"weight_decay": -0.1}}))


def test_epochs_zero_allowed():
    validate_config(parse_config({"train": {"epochs": 0}}))


def test_max_length_positive():
    with pytest.raises(ValueError, match="decode.max_length"):
        validate_config(parse_config({"decode": {"max_length": 0}}))


def test_effective_dict_round_trips():
    run = parse_config({"model": {"d": 32, "heads": 2}, "train": {"seed": 7}})
    again = parse_config(effective_dict(run))
    assert again == run


def test_effective_dict_is_json_serializable():
    json.dumps(effective_dict(RunConfig()))


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": {"d": 16, "heads": 2}}), encoding="utf-8")
    run = load_config(p)
    assert isinstance(run, RunConfig)
    assert run.model.d == 16


def test_load_config_rejects_non_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="object"):
        load_config(p)


def test_load_config_names_file_on_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{oops", encoding="utf-8")
    with pytest.raises(ValueError, match="c.json"):
        load_config(p)


def test_shipped_configs_validate():
    for name in ("full_scale.json", "desk_scale.json", "gradcheck.json"):
        run = load_config(Path(__file__).resolve().parent.parent / "configs" / name)
        validate_config(run)
