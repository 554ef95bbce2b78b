"""The protocol table: the surfaces derived from it cannot drift apart.

``repro.serve.api.OPERATIONS`` is the one declaration of the serve
protocol.  These tests fail first when a surface stops matching it: a
field added to a ``MiningService`` method but not to the row (or the
reverse), a client verb that stops following its row, a codec that no
longer round-trips, a transport that answers or refuses differently from
the other, an error that leaves the dispatch without a ``code``, a route
missing from the docs.
"""

import http.client
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.serve import (
    ApiError,
    CostPlanner,
    HttpClient,
    JobState,
    LocalClient,
    MiningServer,
    MiningService,
    ServeError,
    ShardRouter,
)
from repro.serve.api import BY_DATASET, BY_NAME, OPERATIONS, decode_request, encode_request
from repro.serve.datasets import DatasetRegistry
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.jobs import MAX_POLL_S

ROOT = Path(__file__).resolve().parents[2]
TXNS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]
DELTA = [[1, 2], [2, 3, 4]]
CFG = MiningConfig(min_support=0.4, backend="serial")

#: ids that are URL syntax unless the codec treats them as data
AWKWARD_IDS = ["a b", "café", "x?y", "a%20b", "x/append"]

ROW_IDS = [op.name for op in OPERATIONS]


@pytest.fixture(scope="module")
def server():
    with MiningServer(port=0, n_workers=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def local_router():
    with ShardRouter(n_shards=1, n_workers=2) as router:
        yield router


@pytest.fixture(params=["local", "http"])
def client(request, server, local_router):
    if request.param == "local":
        return LocalClient(local_router)
    return HttpClient(server.url, poll_interval_s=0.01)


def raw_request(server, method: str, path: str, body: bytes | str | None = None):
    """One request with nothing of ``HttpClient`` in the way.  A ``str``
    body is sent as the ``Content-Length`` header, with no bytes behind it."""
    headers = {}
    if isinstance(body, str):
        headers, body = {"Content-Length": body}, None
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def refusal(call) -> tuple:
    """``(exception type, status, code)`` of the refusal ``call`` raises."""
    with pytest.raises(ServeError) as err:
        call()
    return type(err.value), getattr(err.value, "status", None), getattr(err.value, "code", None)


# -- one declaration, every surface ------------------------------------------
def parameters(func) -> set:
    return set(inspect.signature(func).parameters) - {"self"}


#: keywords the router adds when it calls a shard — not part of the protocol
SHARD_PRIVATE = {"submit": {"fingerprint"}}

#: the client method for a row, where it is not the row's name
VERBS = {"wait": "status", "result": "result_detail"}


@pytest.mark.parametrize("op", OPERATIONS, ids=ROW_IDS)
class TestSurfacesMatchTheTable:
    def test_service_method_takes_exactly_the_rows_fields(self, op):
        """The routing column says which tier implements a row: the
        dataset tier for ``BY_DATASET``, the job tier for the rest — and
        the job tier's own dataset verbs only forward."""
        declared = set(op.path_names) | set(op.by_name)
        owner = DatasetRegistry if op.route == BY_DATASET else MiningService
        implemented = parameters(getattr(owner, op.call))
        assert implemented - SHARD_PRIVATE.get(op.name, set()) == declared
        if owner is DatasetRegistry:
            assert parameters(getattr(MiningService, op.call)) == {"args", "kwargs"}

    def test_http_client_verb_takes_exactly_the_rows_fields(self, op):
        declared = set(op.path_names) | {f.wire for f in op.fields}
        if op.name == "wait":
            # ``status`` takes "<id>[?timeout_s=<s>]" as one argument (see the row)
            declared -= {"timeout_s"}
        verb = VERBS.get(op.name, op.name)
        assert parameters(getattr(HttpClient, verb)) == declared
        # one client, two transports: the verb is the same function on both
        assert getattr(LocalClient, verb) is getattr(HttpClient, verb)

    def test_router_and_local_client_reach_the_implementation(self, op, local_router):
        assert callable(getattr(local_router, op.call))
        assert callable(getattr(LocalClient(local_router), VERBS.get(op.name, op.name)))


def test_generated_verbs_keep_the_positional_payload_order():
    """Path arguments, then ``transactions`` / ``config``, the rest
    keyword-only: what every existing call site writes."""
    def positional(verb):
        params = list(inspect.signature(verb).parameters.values())[1:]
        return [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]

    assert positional(HttpClient.submit) == ["transactions", "config"]
    assert positional(HttpClient.create_dataset) == ["dataset_id", "transactions"]
    assert positional(HttpClient.append_dataset) == ["dataset_id", "transactions"]
    assert positional(HttpClient.dataset_changes) == ["dataset_id"]
    with pytest.raises(TypeError, match="priorty"):
        HttpClient("http://unused").submit(TXNS, CFG, priorty=3)


def test_router_consumes_only_its_own_layer():
    """The router's submit names only what placement and shedding read;
    the rest is ``**job_kwargs`` and reaches the shard untouched."""
    named = parameters(ShardRouter.submit) - {"job_kwargs"}
    assert named == {"transactions", "config", "priority", "dataset_id"}
    assert named <= set(BY_NAME["submit"].by_name)
    assert inspect.signature(ShardRouter.submit).parameters["job_kwargs"].kind is (
        inspect.Parameter.VAR_KEYWORD
    )


def test_docs_list_every_route():
    docs = (ROOT / "docs" / "serving.md").read_text()
    module_doc = inspect.getmodule(MiningServer).__doc__
    for op in OPERATIONS:
        assert f"{op.method} {op.path}" in docs, f"docs/serving.md lacks {op.name}"
        assert f"{op.method} {op.path}" in module_doc, f"http.py docstring lacks {op.name}"


# -- the codec is its own inverse --------------------------------------------
ids = st.text(min_size=1)
rows = st.lists(st.lists(st.integers(-5, 5), max_size=3), min_size=1, max_size=4)
numbers = st.floats(allow_nan=False, allow_infinity=False)
configs = st.builds(
    MiningConfig,
    min_support=st.floats(min_value=1e-9, max_value=1.0),
    algorithm=st.sampled_from(["yafim", "apriori", "eclat"]),
    max_length=st.none() | st.integers(1, 9),
    incremental=st.booleans(),
)

#: a value strategy for every argument name the table declares (a new
#: field without one fails the property, not silently skips it)
VALUES = {
    "dataset_id": ids,
    "job_id": ids,
    "config": configs,
    "transactions": rows,
    "priority": st.integers(),
    "timeout_s": numbers,
    "max_retries": st.integers(),
    "retry_backoff_s": numbers,
    "tenant": ids,
    "pinned": st.frozensets(ids, min_size=1),
    "replace": st.booleans(),
    "flush": st.booleans(),
    "max_window": st.integers(),
    "max_age_s": numbers,
    "flush_rows": st.integers(),
    "flush_age_s": numbers,
    "expected_version": st.integers(),
    "since": st.integers(),
    "min_support": numbers,
    "max_length": st.integers(),
    "timeout": st.sampled_from([0.0, 0.25, MAX_POLL_S]) | st.floats(0.0, MAX_POLL_S),
}


@st.composite
def calls(draw):
    """``(operation, keywords)``: required fields always, the optional
    ones present or absent."""
    op = draw(st.sampled_from(OPERATIONS))
    job_ids = ids if op.quote_path else st.integers(1).map("job-{}".format)
    kwargs = {name: draw(job_ids if name == "job_id" else ids) for name in op.path_names}
    for field in op.fields:
        if field.required or draw(st.booleans()):
            kwargs[field.name] = draw(VALUES[field.name])
    if op.name == "submit":  # exactly one source
        kwargs.pop("dataset_id" if "transactions" in kwargs else "transactions", None)
        if "transactions" not in kwargs:
            kwargs.setdefault("dataset_id", draw(ids))
    return op, kwargs


def over_the_wire(method, path, payload):
    return method, path, b"" if payload is None else json.dumps(payload).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(calls())
def test_decode_inverts_encode(call):
    op, kwargs = call
    decoded_op, decoded = decode_request(*over_the_wire(*encode_request(op.name, **kwargs)))
    assert decoded_op is op
    assert {key: decoded[key] for key in kwargs} == kwargs
    for key in decoded.keys() - kwargs.keys():  # nothing but the row's declared defaults
        assert decoded[key] == op.by_name[key].default


def test_every_declared_argument_has_a_strategy():
    declared = {name for op in OPERATIONS for name in (*op.path_names, *op.by_name)}
    assert declared == set(VALUES)


def test_encode_refuses_what_the_row_does_not_declare():
    with pytest.raises(TypeError, match="flush_age"):
        encode_request("append_dataset", dataset_id="w", flush_age_s=2.0)
    with pytest.raises(TypeError, match="dataset_id"):
        encode_request("dataset_info")


# -- ids are data, not URL syntax --------------------------------------------
@pytest.mark.parametrize("dataset_id", AWKWARD_IDS)
def test_awkward_ids_name_their_own_dataset(client, dataset_id):
    info = client.create_dataset(dataset_id, TXNS, replace=True)
    assert info["dataset_id"] == dataset_id and info["version"] == 1
    info = client.append_dataset(dataset_id, DELTA)
    assert info["dataset_id"] == dataset_id and info["version"] == 2
    info = client.dataset_info(dataset_id)
    assert info["dataset_id"] == dataset_id
    assert info["n_transactions"] == len(TXNS) + len(DELTA)
    feed = client.dataset_changes(dataset_id, since=2, min_support=0.4)
    assert feed["dataset_id"] == dataset_id and feed["version"] == 2


def test_append_suffix_in_an_id_is_not_the_append_route(server):
    http = HttpClient(server.url)
    http.create_dataset("plain", TXNS, replace=True)
    http.create_dataset("plain/append", TXNS, replace=True)
    assert http.dataset_info("plain")["version"] == 1  # nothing was appended to it


# -- both transports answer the same -----------------------------------------
def wire_form(value):
    return json.loads(json.dumps(value))


STABLE_SNAPSHOT_KEYS = (
    "state", "algorithm", "min_support", "dataset_fingerprint", "priority",
    "tenant", "via", "dataset_id", "dataset_version", "num_itemsets",
)


def run_script(client) -> list:
    """create → append → flush → info → changes → submit(dataset)."""
    out = [
        client.create_dataset("parity", TXNS, replace=True, flush_rows=4),
        client.dataset_changes("parity", since=1, min_support=0.4),
        client.append_dataset("parity", DELTA),
        client.append_dataset("parity", None, flush=True),
        client.dataset_info("parity"),
        client.dataset_changes("parity", since=1, min_support=0.4, max_length=2),
    ]
    submitted = client.submit(None, CFG, dataset="parity", priority=3, tenant="acme")
    final = client.wait(submitted["job_id"], timeout=30.0)
    out.append({key: final[key] for key in STABLE_SNAPSHOT_KEYS})
    out.append(sorted(client.result(final["job_id"]).items()))
    return wire_form(out)


def test_transports_return_the_same_dicts(server, local_router):
    over_http = run_script(HttpClient(server.url, poll_interval_s=0.01))
    in_process = run_script(LocalClient(local_router))
    assert over_http == in_process
    staged, flushed = over_http[2], over_http[3]
    assert staged["flushed"] is False and flushed["flushed"] is True
    assert over_http[-2]["state"] == "done" and over_http[-2]["dataset_version"] == 2
    oracle = mine_frequent_itemsets(TXNS + DELTA, config=CFG).itemsets
    assert over_http[-1] == wire_form(sorted(oracle.items()))


def submitting(config: dict, **top_level):
    """A submit of ``config`` as sent, with no client-side check in the way."""
    payload = {"transactions": [[6, 7], [6]], "config": {"min_support": 0.4, **config}}
    return lambda c: c._request("POST", "/jobs", {**payload, **top_level})


BAD_REQUEST = (ApiError, 400, "bad_request")

#: single calls whose answer comes from a layer in front of the service —
#: the codec's validation, the ladder's coding of an exception — as
#: ``(call, None)`` for an accepted one, ``(call, (*refusal, what the
#: message names))`` for a refused one
ONE_ANSWER = {
    "accepted": (submitting({}), None),
    "unknown-dataset": (
        lambda c: c.submit(None, CFG, dataset="never"), (ApiError, 404, "unknown_dataset", "never"),
    ),
    "non-bool-flag": (
        lambda c: c.create_dataset("one-answer", TXNS, replace=1), (*BAD_REQUEST, "replace"),
    ),
    "empty-tenant": (
        lambda c: c.submit([[6, 7], [6]], CFG, tenant=""), (*BAD_REQUEST, "tenant"),
    ),
    "no-source": (lambda c: c.submit(None, CFG), (*BAD_REQUEST, "transactions")),
    # the incremental tier counts on bitmaps: a watch names no store
    "changes-candidate-store": (
        lambda c: c.create_dataset("one-answer-feed", TXNS, replace=True) and c._request(
            "GET", "/datasets/one-answer-feed/changes?since=1&min_support=0.4&candidate_store=bitmap"
        ),
        (*BAD_REQUEST, "candidate_store"),
    ),
    # a named dataset's items are all str or all int, the first fixing which
    "create-two-item-types": (
        lambda c: c.create_dataset("one-type", [[1, 2], ["a"]]), (*BAD_REQUEST, "'a' is str"),
    ),
    "create-float-items": (
        lambda c: c.create_dataset("one-type", [[0.5]]), (*BAD_REQUEST, "0.5 is float"),
    ),
    "append-another-item-type": (
        lambda c: c.create_dataset("one-type", TXNS, replace=True)
        and c.append_dataset("one-type", [["a"]]),
        (*BAD_REQUEST, "'a' is str among int items"),
    ),
    # the approximate tier's names are gone from the wire — its top-level
    # sugar and its config fields alike: refused, never run exactly in silence
    "approx-sugar": (submitting({}, approx=True), (*BAD_REQUEST, "approx")),
    **{
        f"retired-config-{name}": (submitting({name: value}), (*BAD_REQUEST, name))
        for name, value in (
            ("approx", True), ("approx_samples", 2), ("approx_ratio", 0.5), ("sample_frac", 0.5),
        )
    },
    # the machine knobs: below 1 is no setting, above the host is no request
    **{
        f"{name}-{value}": (submitting({name: value}), (*BAD_REQUEST, name))
        for name, value in (
            ("max_length", 0), ("max_length", -1), ("num_partitions", 0),
            ("num_partitions", 50_000), ("parallelism", 0), ("parallelism", 10**6),
        )
    },
    # an unknown backend, the retired ``threads`` included, is refused at
    # the door on every algorithm — not failed later as a job
    **{
        f"backend-{value}-{algorithm}": (
            submitting({"backend": value, **knobs}), (*BAD_REQUEST, "backend"),
        )
        for value in ("threads", "bogus")
        for algorithm, knobs in (
            ("yafim", {}),
            ("incremental", {"incremental": True}),
            ("apriori", {"algorithm": "apriori"}),
        )
    },
    # a watch is refused where a job with its max_length would be
    **{
        f"changes-max_length-{value}": (
            lambda c, value=value: c.create_dataset("one-answer-feed", TXNS, replace=True)
            and c._request(
                "GET",
                f"/datasets/one-answer-feed/changes?since=1&min_support=0.4&max_length={value}",
            ),
            (*BAD_REQUEST, f"max_length must be >= 1, got {value}"),
        )
        for value in (0, -1)
    },
}


def jobs_made(client) -> int:
    return sum(
        sum(shard["service"]["jobs_by_state"].values()) for shard in client.metrics()["shards"]
    )


@pytest.mark.parametrize("case", ONE_ANSWER)
def test_a_call_has_one_answer_on_both_transports(client, case):
    call, refused = ONE_ANSWER[case]
    if refused is None:
        assert call(client)["state"] in ("pending", "running", "done")
        return
    before = jobs_made(client)
    with pytest.raises(ServeError) as err:
        call(client)
    *kind, named = refused
    assert (type(err.value), err.value.status, err.value.code) == tuple(kind)
    assert named in str(err.value)
    assert jobs_made(client) == before  # refused: no job was made


def test_an_item_of_another_type_changes_nothing(client):
    client.create_dataset("one-type-kept", TXNS, replace=True)
    before = client.dataset_info("one-type-kept")
    for rows in ([["a"]], [[1], [True]], [[2.5]]):
        with pytest.raises(ApiError) as err:
            client.append_dataset("one-type-kept", rows)
        assert (err.value.status, err.value.code) == (400, "bad_request")
    assert client.dataset_info("one-type-kept") == before


def test_a_refused_watch_builds_nothing(client):
    client.create_dataset("refused-watch", TXNS, replace=True)
    for value in (0, -1):
        with pytest.raises(ApiError) as err:
            client.dataset_changes("refused-watch", since=1, min_support=0.4, max_length=value)
        assert (err.value.status, err.value.code) == (400, "bad_request")
    client.dataset_changes("refused-watch", since=1, min_support=0.4, max_length=2)
    info = client.dataset_info("refused-watch")
    assert (info["version"], info["warm_miners"], info["watches"]) == (1, 1, 1)


def test_a_new_watch_is_counted_at_its_version(client):
    """No version follows the watch, so only the owner's report of having
    set it up can carry the counts ``info`` answers."""
    client.create_dataset("counted-watch", TXNS, replace=True)
    client.dataset_changes("counted-watch", since=1, min_support=0.4)
    info = client.dataset_info("counted-watch")
    assert (info["version"], info["warm_miners"], info["watches"]) == (1, 1, 1)
    client.dataset_changes("counted-watch", since=1, min_support=0.5, max_length=2)
    info = client.dataset_info("counted-watch")
    assert (info["version"], info["warm_miners"], info["watches"]) == (1, 2, 2)


# -- submit keywords reach the shard on every surface ------------------------
class TestSubmitKeywords:
    def test_retry_backoff_reaches_the_job(self, server, local_router):
        job = local_router.submit(TXNS, CFG, max_retries=1, retry_backoff_s=0.125)
        assert job.request.retry_backoff_s == 0.125
        snap = LocalClient(local_router).submit([[5, 6]], CFG, retry_backoff_s=0.25)
        assert local_router.get(snap["job_id"]).request.retry_backoff_s == 0.25
        snap = HttpClient(server.url).submit([[7, 8]], CFG, retry_backoff_s=0.5)
        assert server.service.get(snap["job_id"]).request.retry_backoff_s == 0.5

    def test_a_default_submit_does_not_send_it(self):
        _, _, payload = encode_request(
            "submit", transactions=TXNS, config=CFG, priority=0, timeout_s=None,
            max_retries=0, retry_backoff_s=None, tenant="default",
        )
        assert set(payload) == {"config", "priority", "max_retries", "tenant", "transactions"}

    def test_a_default_left_out_is_the_implementations(self):
        """Spelling a default out (``priority: 0``, ``tenant: "default"``,
        ``timeout_s=0.0``) and leaving it out are one call: the row
        restates no default, the implementing method's own applies."""
        def call(owner, method, path, payload=None):
            op, kwargs = decode_request(*over_the_wire(method, path, payload))
            bound = inspect.signature(getattr(owner, op.call)).bind(None, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        asked = {"transactions": TXNS, "config": CFG.canonical()}
        spelt_out = {**asked, "priority": 0, "max_retries": 0, "tenant": "default"}
        assert call(MiningService, "POST", "/jobs", asked) == call(
            MiningService, "POST", "/jobs", spelt_out
        )
        changes = "/datasets/w/changes?since=1&min_support=0.4"
        assert call(DatasetRegistry, "GET", changes) == call(
            DatasetRegistry, "GET", changes + "&timeout_s=0.0"
        )

    def test_pinned_is_accepted_with_and_without_a_planner(self, server):
        knobs = ["backend", "num_partitions", "candidate_store"]
        plain = HttpClient(server.url, poll_interval_s=0.01)
        final = plain.wait(plain.submit([[4, 5], [4]], CFG, pinned=knobs)["job_id"], 30.0)
        assert final["state"] == "done" and final["planned"] is None
        with MiningServer(port=0, n_workers=1, planner=True) as planned:
            client = HttpClient(planned.url, poll_interval_s=0.01)
            snap = client.submit([[4, 5], [4]], MiningConfig(min_support=0.4), pinned=knobs)
            assert client.wait(snap["job_id"], 30.0)["planned"] == {}

    def test_both_sources_is_refused_by_codec_and_by_service(self, server):
        status, body = raw_request(
            server, "POST", "/jobs",
            json.dumps({"config": {"min_support": 0.5}, "transactions": TXNS,
                        "dataset": "parity"}).encode(),
        )
        assert (status, body["code"]) == (400, "bad_request")
        with MiningService(n_workers=1) as svc:
            svc.create_dataset("w", TXNS)
            with pytest.raises(ServeError, match="not both"):
                svc.submit(TXNS, CFG, dataset_id="w")


# -- one error ladder for every method ---------------------------------------
GOOD = {
    "submit": ("POST", "/jobs", {"transactions": TXNS, "config": {"min_support": 0.4}}),
    "create_dataset": ("POST", "/datasets/ladder-new", {"transactions": TXNS}),
    "append_dataset": ("POST", "/datasets/ladder/append", {"transactions": DELTA}),
    "dataset_changes": ("GET", "/datasets/ladder/changes", {"since": 1, "min_support": 0.4}),
    "wait": ("GET", "/jobs/job-1", {}),
}

#: a value of the wrong type for every body / query field of the table
WRONG = {
    ("submit", "config"): [1],
    ("submit", "priority"): "high",
    ("submit", "timeout_s"): "soon",
    ("submit", "max_retries"): "many",
    ("submit", "retry_backoff_s"): "slow",
    ("submit", "tenant"): 5,
    ("submit", "dataset"): 5,
    ("submit", "transactions"): "abc",
    ("submit", "pinned"): 5,
    ("submit", "approx"): "yes",  # retired: refused as an undeclared key
    ("create_dataset", "transactions"): "abc",
    ("create_dataset", "replace"): "yes",
    ("create_dataset", "max_window"): "big",
    ("create_dataset", "max_age_s"): "old",
    ("create_dataset", "flush_rows"): "few",
    ("create_dataset", "flush_age_s"): "soon",
    ("append_dataset", "transactions"): "abc",
    ("append_dataset", "expected_version"): "latest",
    ("append_dataset", "flush"): "yes",
    ("dataset_changes", "since"): "start",
    ("dataset_changes", "min_support"): "half",
    ("dataset_changes", "max_length"): "long",
    ("dataset_changes", "candidate_store"): "nope",
    ("dataset_changes", "timeout_s"): "soon",
    ("wait", "timeout_s"): "soon",
}


def malformed(name: str, wire: str, value):
    method, path, good = GOOD[name]
    args = {**good, wire: value}
    if (name, wire) == ("submit", "dataset"):
        del args["transactions"]
    if method == "GET":
        query = "&".join(f"{k}={v}" for k, v in args.items())
        return method, f"{path}?{query}", None
    return method, path, json.dumps(args).encode()


def as_json(payload) -> bytes:
    return json.dumps(payload).encode()


LADDER = [
    (*malformed(name, wire, value), 400, "bad_request")
    for (name, wire), value in WRONG.items()
] + [
    # undeclared keys: body (a path argument's name included), query
    ("POST", "/jobs", as_json({**GOOD["submit"][2], "priorty": 3}), 400, "bad_request"),
    ("POST", "/datasets/ladder-new", as_json({"transactions": TXNS, "dataset_id": "y"}),
     400, "bad_request"),
    ("POST", "/datasets/ladder/append", as_json({"transactions": DELTA, "flsh": True}),
     400, "bad_request"),
    ("GET", "/jobs/job-1?timeout=5", None, 400, "bad_request"),
    ("GET", "/datasets/ladder/changes?since=1&min_support=0.4&bogus=1", None, 400, "bad_request"),
    ("GET", "/datasets/ladder?verbose=1", None, 400, "bad_request"),
    ("GET", "/healthz?x=1", None, 400, "bad_request"),
    ("DELETE", "/jobs/job-1?x=1", None, 400, "bad_request"),
    # missing required fields
    ("GET", "/datasets/ladder/changes?since=1", None, 400, "bad_request"),
    ("GET", "/datasets/ladder/changes?min_support=0.4", None, 400, "bad_request"),
    ("POST", "/jobs", as_json({"transactions": TXNS}), 400, "bad_request"),
    ("POST", "/jobs", as_json({"config": {"min_support": 0.4}}), 400, "bad_request"),
    ("POST", "/datasets/ladder-new", as_json({"replace": True}), 400, "bad_request"),
    ("POST", "/datasets/ladder/append", as_json({}), 400, "bad_request"),
    # bodies that are not a JSON object
    ("POST", "/jobs", b"{not json", 400, "bad_request"),
    ("POST", "/datasets/ladder/append", b"{not json", 400, "bad_request"),
    ("POST", "/jobs", None, 400, "bad_request"),
    ("POST", "/datasets/ladder-new", b"", 400, "bad_request"),
    ("POST", "/jobs", b"[1, 2]", 400, "bad_request"),
    # no such route, per method
    ("GET", "/nope", None, 404, "unknown_route"),
    ("POST", "/nope", as_json({}), 404, "unknown_route"),
    ("DELETE", "/nope", None, 404, "unknown_route"),
    ("GET", "/jobs", None, 404, "unknown_route"),
    ("DELETE", "/results/job-1", None, 404, "unknown_route"),
    ("DELETE", "/datasets/ladder", None, 404, "unknown_route"),
    ("GET", "/datasets/a/b/c", None, 404, "unknown_route"),
    ("POST", "/datasets//append", as_json({"transactions": DELTA}), 404, "unknown_route"),
    # no such job / dataset, on every route that takes one
    ("GET", "/jobs/job-999999", None, 404, "unknown_job"),
    ("GET", "/jobs/job-999999?timeout_s=0.1", None, 404, "unknown_job"),
    ("GET", "/results/job-999999", None, 404, "unknown_job"),
    ("DELETE", "/jobs/job-999999", None, 404, "unknown_job"),
    ("GET", "/datasets/never", None, 404, "unknown_dataset"),
    ("POST", "/datasets/never/append", as_json({"transactions": DELTA}), 404, "unknown_dataset"),
    ("GET", "/datasets/never/changes?since=1&min_support=0.4", None, 404, "unknown_dataset"),
    ("POST", "/jobs", as_json({"dataset": "never", "config": {"min_support": 0.4}}),
     404, "unknown_dataset"),
    # a job id names its shard ("job-999999" above has none in it): an
    # unknown shard, a number its shard has not minted yet (rows are
    # appended here: the test ids above carry their index)
    ("GET", "/jobs/job-shard-7-1", None, 404, "unknown_job"),
    ("GET", "/results/job-shard-0-999999", None, 404, "unknown_job"),
    ("DELETE", "/jobs/job-shard-0-999999", None, 404, "unknown_job"),
    ("GET", "/jobs/job-shard-0-0", None, 404, "unknown_job"),
    # a declared length over the cap, or not a length, is refused with the
    # body unread (a str body: see raw_request)
    ("POST", "/jobs", str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
    ("POST", "/jobs", "12x", 400, "bad_request"),
    ("POST", "/jobs", "9" * 5000, 413, "payload_too_large"),  # more digits than int() takes
]


RAW = object()


def typed_payload(body):
    """The payload a typed client sends to put ``body`` on the wire, or
    ``RAW`` when none can: bytes that are not JSON, a lying header."""
    if isinstance(body, str):
        return RAW
    try:
        return json.loads(body) if body else None
    except ValueError:
        return RAW


#: wire names the table no longer declares, kept in the ladder: still a 400
RETIRED = {("submit", "approx"), ("dataset_changes", "candidate_store")}


def test_wrong_values_cover_every_declared_field():
    declared = {(op.name, f.wire) for op in OPERATIONS for f in op.fields}
    assert declared == set(WRONG) - RETIRED
    assert not declared & RETIRED


class TestErrorLadder:
    @pytest.fixture(scope="class", autouse=True)
    def ladder_dataset(self, server, local_router):
        HttpClient(server.url).create_dataset("ladder", TXNS, replace=True)
        LocalClient(local_router).create_dataset("ladder", TXNS, replace=True)

    @pytest.mark.parametrize(
        "method, path, body, status, code", LADDER,
        ids=[f"{m} {p[:40]} #{i}" for i, (m, p, *_) in enumerate(LADDER)],
    )
    def test_malformed_request(self, server, local_router, method, path, body, status, code):
        got_status, payload = raw_request(server, method, path, body)
        assert (got_status, payload.get("code")) == (status, code), payload
        assert payload["error"]
        typed = typed_payload(body)
        if typed is RAW:
            return  # the socket is the only transport that can carry these bytes
        for client in (HttpClient(server.url), LocalClient(local_router)):
            raised = refusal(lambda: client._request(method, path, typed))
            assert raised == (ApiError, status, code), type(client).__name__

    def test_refused_requests_changed_nothing(self, server):
        client = HttpClient(server.url)
        assert client.dataset_info("ladder")["version"] == 1
        with pytest.raises(ApiError) as err:
            client.dataset_info("ladder-new")
        assert err.value.code == "unknown_dataset"

    def test_delete_with_a_query_does_not_cancel(self, server):
        """``DELETE /jobs/<id>?x=1`` used to look up job ``'<id>?x=1'``."""
        job = server.service.submit([[9, 9, 8]], CFG)
        status, payload = raw_request(server, "DELETE", f"/jobs/{job.job_id}?x=1")
        assert (status, payload["code"]) == (400, "bad_request")
        assert server.service.wait(job.job_id, 30.0).state is JobState.DONE

    def test_an_oversized_body_is_the_same_413_through_the_http_client(self, server, monkeypatch):
        """The server refuses it unread and hangs up, which a client still
        sending 64 MiB sees as a reset and would retry as a restart: so
        ``HttpClient`` gives the server's answer before it connects."""
        client = HttpClient(server.url, connect_retries=0)
        routed = server.service.jobs_routed
        monkeypatch.setattr("repro.serve.client.MAX_BODY_BYTES", 64)
        assert refusal(lambda: client.submit(TXNS, CFG)) == (ApiError, 413, "payload_too_large")
        assert server.service.jobs_routed == routed
        assert client.healthz()["status"] == "ok"  # no body, and the client still works
        monkeypatch.undo()
        assert client.submit(TXNS, CFG)["job_id"]

    def test_client_errors_carry_the_servers_code(self, server):
        client = HttpClient(server.url)
        for call, code in (
            (lambda: client._request("DELETE", "/nope"), "unknown_route"),
            (lambda: client.cancel("job-999999"), "unknown_job"),
            (lambda: client.result_detail("job-999999"), "unknown_job"),
        ):
            with pytest.raises(ApiError) as err:
                call()
            assert (err.value.status, err.value.code) == (404, code)


# -- a job the shard has let go is 410, on both transports --------------------
class TestExpiredJobs:
    @pytest.fixture(scope="class")
    def small(self):
        """Two shards that each retain ONE finished job."""
        with MiningServer(port=0, shards=2, n_workers=1, result_cache_entries=1) as srv:
            yield srv

    @pytest.fixture(params=["local", "http"])
    def expired(self, request, small):
        """``(client, id the shard minted and let go, a retained id)``."""
        if request.param == "local":
            client = LocalClient(small.service)
        else:
            client = HttpClient(small.url, poll_interval_s=0.01)
        ids = []
        for seed in (1, 2):  # same rows: same home shard
            job = small.service.submit(TXNS, MiningConfig(min_support=0.1 * seed,
                                                          backend="serial"))
            assert small.service.wait(job.job_id, 30.0).state is JobState.DONE
            ids.append(job.job_id)
        return client, ids[0], ids[1]

    def test_wait_result_and_cancel_answer_410(self, expired):
        client, gone, kept = expired
        for call in (client.status, client.result, client.cancel,
                     lambda job_id: client.wait(job_id, 1.0)):
            with pytest.raises(ApiError) as err:
                call(gone)
            assert (err.value.status, err.value.code) == (410, "job_expired")
        assert client.result(kept)  # the shard's newest finished job is retained

    def test_never_minted_ids_stay_404(self, expired):
        client, gone, _ = expired
        shard = gone.rpartition("-")[0]  # "job-shard-<i>"
        for never in (f"{shard}-999999", "job-shard-9-1", "job-5", "job-x"):
            for call in (client.status, client.result, client.cancel):
                with pytest.raises(ApiError) as err:
                    call(never)
                assert (err.value.status, err.value.code) == (404, "unknown_job"), never

    def test_the_410_body_carries_the_code(self, small, expired):
        _, gone, _ = expired
        for method, path in (("GET", f"/jobs/{gone}"), ("GET", f"/jobs/{gone}?timeout_s=0.1"),
                             ("GET", f"/results/{gone}"), ("DELETE", f"/jobs/{gone}")):
            status, payload = raw_request(small, method, path)
            assert (status, payload["code"]) == (410, "job_expired") and payload["error"]


# -- one server shape --------------------------------------------------------
class TestOneServerShape:
    def test_every_server_fronts_a_router(self, server):
        assert isinstance(server.service, ShardRouter)
        assert len(server.service.shards) == 1
        assert server.service.queue_limit == 32

    def test_metrics_and_healthz_have_one_shape(self, server):
        with MiningServer(port=0, shards=3, n_workers=1, queue_limit=None) as wide:
            one, three = HttpClient(server.url), HttpClient(wide.url)
            assert set(one.metrics()) == set(three.metrics())
            assert set(one.healthz()) == set(three.healthz()) == {"status", "shards", "workers"}
            assert three.healthz()["shards"] == 3
            assert three.metrics()["router"]["queue_limit_per_shard"] is None
            assert [s["queue_limit"] for s in three.metrics()["shards"]] == [None] * 3

    def test_a_planner_is_the_only_optional_block(self):
        with MiningServer(port=0, n_workers=1, planner=CostPlanner()) as planned:
            assert "planner" in HttpClient(planned.url).metrics()
