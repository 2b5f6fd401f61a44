package memnode

// OwnerLogicalBytes reports one container's logical holdings.
func (n *Node) OwnerLogicalBytes(owner string) int64 {
	if or := n.owners[owner]; or != nil {
		return or.pages * int64(n.cfg.PageSize)
	}
	return 0
}
