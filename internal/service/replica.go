package service

import (
	"net/http"

	"yap/internal/replica"
)

// This file is the HTTP face of internal/replica: POST /v1/replica is the
// peer-to-peer endpoint of the replicated job control plane. Leaders post
// append messages (durable WAL records and heartbeats) and candidates post
// vote solicitations; the local replica.Node answers both. The endpoint
// replies 200 to every well-formed message — protocol rejections (stale
// term, log gap, refused ballot) travel inside the Reply body, so an HTTP
// error always means "not a cluster member" or "not speaking the
// protocol", which is exactly the distinction a sender's retry loop needs.

// handleReplica is POST /v1/replica.
func (s *Server) handleReplica(w http.ResponseWriter, r *http.Request) {
	n := s.cfg.Replica
	if n == nil {
		writeError(w, http.StatusNotFound, "replica_disabled",
			"this daemon is not a member of a replicated control plane (start yapserve with -peers)")
		return
	}
	var msg replica.Message
	if !decodeRequest(w, r, &msg) {
		return
	}
	writeJSON(w, http.StatusOK, n.Handle(r.Context(), msg))
}
