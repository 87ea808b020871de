"""``AppConfig.from_xml`` and ``repro check`` read a document alike.

Both go through :func:`repro.grid.xmlparse.parse_document`, so for every
document: ``from_xml`` raises nothing but ``ConfigError``, it raises
whenever ``check`` reports GA100, and it loads whenever ``check``
reports no error.  The shipped examples, the verifier fixtures and
hypothesis-mutated copies of them (junk attribute values, dropped
attributes, unknown child elements) are all held to that.
"""

import glob
import os
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_document
from repro.cli import main
from repro.experiments.common import build_star_fabric
from repro.grid.config import AppConfig, ConfigError

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
DOCUMENTS = sorted(
    glob.glob(os.path.join(ROOT, "examples", "configs", "*.xml"))
    + glob.glob(os.path.join(ROOT, "tests", "analysis", "fixtures", "**", "*.xml"),
                recursive=True)
)

#: The fabric ``repro check`` verifies against by default.
FABRIC = build_star_fabric(4, bandwidth=100_000.0)

#: Attributes each element of the format knows.
ATTRIBUTES = {
    "application": ("name",),
    "stage": ("name", "code"),
    "stream": ("name", "from", "to", "item-size"),
    "requirement": ("min-cores", "min-memory-mb", "min-speed-factor", "placement"),
    "bandwidth": ("to", "min"),
    "parameter": ("name", "init", "min", "max", "increment", "direction"),
    "property": ("key", "value"),
}

JUNK = ["", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "1.0", "2",
        "-0", " 7 ", "0x10", "ghost", "source-0"]

CHILDREN = ["widget", "stage", "stream", "requirement", "bandwidth",
            "parameter", "property"]


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def assert_agree(text):
    report = verify_document(
        text, repository=FABRIC.repository, registry=FABRIC.registry
    )
    try:
        AppConfig.from_xml(text)
        loaded = True
    except ConfigError:
        loaded = False
    if "GA100" in report.codes():
        assert not loaded, report.render_text()
    if report.ok:
        assert loaded, report.render_text()


def test_corpus_is_complete():
    assert len(DOCUMENTS) >= 55


@pytest.mark.parametrize("path", DOCUMENTS, ids=os.path.basename)
def test_document_reads_alike(path):
    assert_agree(_read(path))


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_document_reads_alike(data):
    root = ET.fromstring(_read(data.draw(st.sampled_from(DOCUMENTS))))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        element = data.draw(st.sampled_from(list(root.iter())))
        known = sorted(set(element.attrib) | set(ATTRIBUTES.get(element.tag, ("x",))))
        mutation = data.draw(st.sampled_from(["junk", "drop", "child"]))
        if mutation == "junk":
            element.set(data.draw(st.sampled_from(known)),
                        data.draw(st.sampled_from(JUNK)))
        elif mutation == "drop" and element.attrib:
            del element.attrib[data.draw(st.sampled_from(sorted(element.attrib)))]
        else:
            ET.SubElement(element, data.draw(st.sampled_from(CHILDREN)))
    assert_agree(ET.tostring(root, encoding="unicode"))


# -- the documents the two readers used to disagree on ---------------------

PIPELINE = """<application name="x">
  <stage name="a" code="repo://count-samps/relay">{stage}</stage>
  <stage name="b" code="repo://count-samps/relay"/>
  <stream name="s" from="a" to="b"{stream}/>
</application>"""


def _rejected_by_both(document, message):
    with pytest.raises(ConfigError, match=message):
        AppConfig.from_xml(document)
    report = verify_document(document)
    assert "GA100" in report.codes()


@pytest.mark.parametrize("stage,stream,attribute", [
    ('<requirement min-cores="two"/>', "", "min-cores"),
    ('<requirement min-memory-mb="lots"/>', "", "min-memory-mb"),
    ('<requirement><bandwidth to="b" min="fast"/></requirement>', "", "min"),
    ("", ' item-size="big"', "item-size"),
], ids=["min-cores", "min-memory-mb", "bandwidth-min", "item-size"])
def test_non_numeric_requirement_or_size(stage, stream, attribute):
    _rejected_by_both(PIPELINE.format(stage=stage, stream=stream),
                      f"attribute {attribute}=")


def test_bandwidth_without_peer():
    document = PIPELINE.format(
        stage='<requirement><bandwidth min="5"/></requirement>', stream=""
    )
    _rejected_by_both(document, "<bandwidth> missing 'to'")


def test_unknown_element_under_requirement():
    document = PIPELINE.format(
        stage="<requirement><widget/></requirement>", stream=""
    )
    _rejected_by_both(document, "unexpected element <widget> under <requirement>")


def test_direction_is_an_integer(tmp_path, capsys):
    document = PIPELINE.format(
        stage='<parameter name="p" init="1" min="0" max="2" increment="1" '
              'direction="1.0"/>',
        stream="",
    )
    _rejected_by_both(document, "direction='1.0' is not an integer")
    path = tmp_path / "direction.xml"
    path.write_text(document, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert "error[GA100]" in capsys.readouterr().err


def test_unknown_placement_host_is_a_placement_finding():
    document = PIPELINE.format(stage='<requirement placement="ghost"/>', stream="")
    report = verify_document(document, registry=FABRIC.registry)
    assert "GA303" in report.codes()
    assert "ghost" in report.render_text()


def test_stage_nested_in_stream_is_not_declared():
    document = PIPELINE.replace(
        '<stream name="s" from="a" to="b"{stream}/>',
        '<stream name="s" from="a" to="b">'
        '<stage name="c" code="repo://count-samps/relay"/></stream>',
    ).format(stage="")
    _rejected_by_both(document, "unexpected element <stage> under <stream>")


def test_parameter_takes_no_children():
    document = PIPELINE.format(
        stage='<parameter name="p" init="1" min="0" max="2" increment="1" '
              'direction="1"><widget/></parameter>',
        stream="",
    )
    _rejected_by_both(document, "unexpected element <widget> under <parameter>")
