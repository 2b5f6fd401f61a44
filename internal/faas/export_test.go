package faas

import "github.com/faasmem/faasmem/internal/workload"

// StageRequests returns how many stage requests one run of wf submits: one
// per stage replica. Tests hold the workflow engine's counts to it.
func StageRequests(wf *workload.Workflow) int {
	n := 0
	for i := range wf.Stages {
		n += wf.Stages[i].Width()
	}
	return n
}
