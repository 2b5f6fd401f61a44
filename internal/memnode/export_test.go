package memnode

import "github.com/faasmem/faasmem/internal/pagemem"

// OwnerLogicalBytes reports one container's logical holdings.
func (n *Node) OwnerLogicalBytes(owner string) int64 {
	if or := n.owners[owner]; or != nil {
		return or.pages * pagemem.DefaultPageSize
	}
	return 0
}
