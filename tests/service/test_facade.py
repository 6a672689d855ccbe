"""CommunityService facade: sessions, lifecycle, caches, deprecation shims."""

from __future__ import annotations

import warnings

import pytest

from repro import __version__
from repro.dynamic.updates import EdgeUpdate
from repro.exceptions import (
    MalformedRequestError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.query.params import make_dtopl_query, make_topl_query
from repro.serve.batch import ServingConfig
from repro.service.facade import CommunityService
from repro.service.schema import (
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
)

TOPL = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)
DTOPL = make_dtopl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=2)


@pytest.fixture()
def service(service_graph_doc):
    service = CommunityService()
    service.build(
        BuildRequest(
            session="main", graph=service_graph_doc, config={"max_radius": 2}
        )
    )
    return service


class TestSessions:
    def test_build_registers_session(self, service):
        assert service.session_names() == ["main"]
        assert service.has_session("main")
        assert service.engine("main").graph.num_vertices() == 120

    def test_duplicate_session_rejected(self, service, service_graph_doc):
        with pytest.raises(SessionExistsError):
            service.build(BuildRequest(session="main", graph=service_graph_doc))

    def test_replace_rebuilds_session(self, service, service_graph_doc):
        response = service.build(
            BuildRequest(
                session="main",
                graph=service_graph_doc,
                config={"max_radius": 1},
                replace=True,
            )
        )
        assert response.engine["index"]["max_radius"] == 1

    def test_multiple_sessions_coexist(self, service, service_graph_doc):
        service.build(
            BuildRequest(
                session="other", graph=service_graph_doc, config={"max_radius": 1}
            )
        )
        assert service.session_names() == ["main", "other"]
        # Each session answers with its own index.
        assert service.engine("other").index.max_radius == 1
        assert service.engine("main").index.max_radius == 2

    def test_unknown_session_everywhere(self, service):
        with pytest.raises(UnknownSessionError):
            service.topl(ToplRequest(query=TOPL, session="ghost"))
        with pytest.raises(UnknownSessionError):
            service.engine("ghost")
        with pytest.raises(UnknownSessionError):
            service.drop_session("ghost")

    def test_drop_session(self, service):
        service.drop_session("main")
        assert service.session_names() == []

    def test_adopt_existing_engine(self, built_engine):
        service = CommunityService()
        name = service.adopt(built_engine, session="adopted")
        assert name == "adopted"
        assert service.engine("adopted") is built_engine

    def test_unknown_config_setting_rejected(self, service_graph_doc):
        service = CommunityService()
        with pytest.raises(MalformedRequestError):
            service.build(
                BuildRequest(
                    session="x", graph=service_graph_doc, config={"warp_factor": 9}
                )
            )

    def test_retired_kernel_tier_setting_is_accepted_and_ignored(
        self, service_graph_doc
    ):
        """Version-1 clients may still send ``kernel_tier`` on a wire build.

        The platform picks the offline kernel now, so the key is dropped
        before the config is built: the build succeeds and answers exactly
        as one without it.
        """
        service = CommunityService()
        answers = []
        for session, extra in (("old", {"kernel_tier": "vector"}), ("new", {})):
            document = BuildRequest(
                session=session,
                graph=service_graph_doc,
                config={"max_radius": 2, "backend": "fast", **extra},
            ).to_json()
            response, failure = service.handle_json("build", document)
            assert failure is None, response
            assert "kernel_tier" not in response["engine"]["config"]
            response, failure = service.handle_json(
                "topl", ToplRequest(query=TOPL, session=session).to_json()
            )
            assert failure is None, response
            answers.append(response["communities"])
        assert answers[0] == answers[1]

    def test_unknown_setting_next_to_a_retired_one_rejected(self, service_graph_doc):
        service = CommunityService()
        document = BuildRequest(session="x", graph=service_graph_doc).to_json()
        document["config"] = {"kernel_tier": "vector", "warp_factor": 9}
        response, failure = service.handle_json("build", document)
        assert failure is not None
        assert response["error"]["code"] == "MALFORMED_REQUEST"
        assert "warp_factor" in response["error"]["message"]

    def test_sessions_response_reports_diagnostics(self, service):
        document = service.sessions().to_json()
        assert document["api_version"] == __version__
        (info,) = document["sessions"]
        assert info["name"] == "main"
        assert info["engine"]["backend"] == "reference"
        assert info["engine"]["epoch"] == 0
        assert info["engine"]["store"] == {"store_backed": False}

    def test_health_reuses_engine_describe(self, service):
        document = service.health().to_json()
        assert document["status"] == "ok"
        (info,) = document["sessions"]
        assert info["engine"] == service.engine("main").describe()
        # The reference backend keeps no refresh cache.
        assert info["engine"]["dynamic"] == {"upp_rows": None, "upp_entries": None}

    def test_health_reports_refresh_cache_after_fast_update(self, service_graph_doc):
        service = CommunityService()
        service.build(
            BuildRequest(
                session="fast", graph=service_graph_doc,
                config={"max_radius": 2, "backend": "fast"},
            )
        )
        (info,) = service.health().to_json()["sessions"]
        assert info["engine"]["dynamic"] == {"upp_rows": 0, "upp_entries": 0}
        update = service.update(
            UpdateRequest(
                session="fast", edits=(EdgeUpdate.insert(0, 60, 0.4),),
                damage_threshold=1.0,
            )
        )
        assert update.report["mode"] == "incremental"
        (info,) = service.health().to_json()["sessions"]
        dynamic = info["engine"]["dynamic"]
        assert dynamic == service.engine("fast").describe()["dynamic"]
        assert dynamic["upp_rows"] > 0
        assert dynamic["upp_entries"] >= dynamic["upp_rows"]


class TestLifecycle:
    def test_topl_response_envelope(self, service):
        response = service.topl(ToplRequest(query=TOPL, session="main"))
        assert response.session == "main"
        assert response.epoch == 0
        assert response.api_version == __version__
        assert response.elapsed_seconds >= 0.0
        assert len(response.communities) <= TOPL.top_l
        assert response.statistics.communities_scored >= len(response.communities)

    def test_dtopl_response_envelope(self, service):
        response = service.dtopl(DToplRequest(query=DTOPL, session="main"))
        assert len(response.communities) <= DTOPL.top_l
        assert response.diversity_score >= 0.0
        assert response.increment_evaluations >= 0

    def test_update_bumps_epoch_in_responses(self, service):
        edges_before = service.engine("main").graph.num_edges()
        before = service.topl(ToplRequest(query=TOPL, session="main"))
        update = service.update(
            UpdateRequest(
                session="main",
                edits=(EdgeUpdate.insert(0, 60, 0.4),),
                damage_threshold=1.0,
            )
        )
        after = service.topl(ToplRequest(query=TOPL, session="main"))
        assert before.epoch == 0
        assert update.epoch == 1
        assert update.report["mode"] in ("incremental", "rebuild")
        assert update.graph["num_edges"] == edges_before + 1
        assert after.epoch == 1

    def test_batch_preserves_order_and_caches(self, service):
        request = BatchRequest(session="main", queries=(TOPL, DTOPL, TOPL))
        response = service.batch(request)
        assert len(response.results) == 3
        assert response.results[0]["type"] == "topl"
        assert response.results[1]["type"] == "dtopl"
        # Duplicate TopL query in one batch: deduplicated, not recomputed.
        assert response.results[2] == response.results[0]
        assert response.statistics["deduplicated"] == 1
        assert response.cache_statistics["result_cache"]["lookups"] >= 3

    def test_single_queries_share_session_cache(self, service):
        first = service.topl(ToplRequest(query=TOPL, session="main"))
        service.topl(ToplRequest(query=TOPL, session="main"))
        stats = service.serving("main").cache_statistics()["result_cache"]
        assert stats["hits"] >= 1
        assert len(first.communities) <= TOPL.top_l

    def test_pruning_override_answers_unpruned(self, service):
        pruned = service.topl(ToplRequest(query=TOPL, session="main"))
        unpruned = service.topl(
            ToplRequest(
                query=TOPL,
                session="main",
                pruning={"keyword": False, "support": False, "score": False},
            )
        )
        assert [c.score for c in unpruned.communities] == [
            c.score for c in pruned.communities
        ]
        # The override really reached the processor: the optional rules
        # pruned nothing on the unpruned path.
        for rule in ("pruned_by_keyword", "pruned_by_support", "pruned_by_score"):
            assert getattr(unpruned.statistics, rule) == 0

    def test_save_and_load_store_through_requests(self, service_graph_doc, tmp_path):
        store_path = str(tmp_path / "writer.repro-store")
        service = CommunityService()
        built = service.build(
            BuildRequest(
                session="writer",
                graph=service_graph_doc,
                config={"max_radius": 2},
                save_store_path=store_path,
            )
        )
        # The new session reports the file it was checkpointed to.
        store = built.engine["store"]
        assert store["store_backed"] and store["attached"]
        assert store["path"] == store_path
        assert store["generation"] == 0
        assert set(built.to_json()) >= {"engine", "session", "epoch"}
        assert not {"loaded_index", "saved_index_path"} & set(built.to_json())
        loaded = service.build(
            BuildRequest(session="reader", store_path=store_path, config={"backend": "fast"})
        )
        assert loaded.engine["backend"] == "fast"
        assert loaded.engine["index"]["max_radius"] == 2
        assert loaded.engine["store"]["path"] == store_path
        a = service.topl(ToplRequest(query=TOPL, session="writer"))
        b = service.topl(ToplRequest(query=TOPL, session="reader"))
        assert a.communities
        assert a.to_json()["communities"] == b.to_json()["communities"]

    def test_handle_json_success_and_error(self, service):
        document, failure = service.handle_json(
            "topl", ToplRequest(query=TOPL, session="main").to_json()
        )
        assert failure is None
        assert document["session"] == "main"
        document, failure = service.handle_json(
            "topl", ToplRequest(query=TOPL, session="ghost").to_json()
        )
        assert failure is not None
        assert document["error"]["code"] == "UNKNOWN_SESSION"
        assert failure.error.http_status == 404

    def test_dispatch_rejects_foreign_objects(self, service):
        with pytest.raises(MalformedRequestError):
            service.dispatch(object())

    def test_handle_json_turns_unexpected_errors_into_internal(
        self, service, monkeypatch
    ):
        """A bug must surface as an INTERNAL document, never a dropped reply."""

        def explode(request):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(service, "topl", explode)
        response, failure = service.handle_json(
            "topl", ToplRequest(query=TOPL, session="main").to_json()
        )
        assert failure is not None
        assert response["error"]["code"] == "INTERNAL"
        assert failure.error.http_status == 500
        assert "secret internal detail" not in response["error"]["message"]

    @pytest.mark.parametrize("config", [{"thresholds": 5}, {"max_radius": "two"}])
    def test_wrong_typed_config_is_malformed_not_internal(
        self, service_graph_doc, config
    ):
        service = CommunityService()
        document = BuildRequest(session="bad", graph=service_graph_doc).to_json()
        document["config"] = config
        response, failure = service.handle_json("build", document)
        assert failure is not None
        assert response["error"]["code"] == "MALFORMED_REQUEST"

    def test_batch_pruning_override_keeps_session_serving_config(self, built_engine):
        service = CommunityService()
        service.adopt(
            built_engine,
            session="uncached",
            serving_config=ServingConfig(
                result_cache_capacity=0, propagation_cache_capacity=0
            ),
        )
        response = service.batch(
            BatchRequest(
                session="uncached", queries=(TOPL,), pruning={"score": False}
            )
        )
        # Caches stay off exactly as the session was configured.
        assert response.cache_statistics["result_cache"]["lookups"] == 0
        assert response.statistics["executed"] == 1


class TestServingBindings:
    def test_custom_serving_config_per_session(self, built_engine):
        service = CommunityService()
        service.adopt(
            built_engine,
            session="uncached",
            serving_config=ServingConfig(result_cache_capacity=0),
        )
        assert service.serving("uncached").result_cache is None


class TestDeprecationShims:
    def test_engine_queries_do_not_warn(self, built_engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            built_engine.topl(TOPL)
